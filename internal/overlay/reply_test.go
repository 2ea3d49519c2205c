package overlay

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
)

// request sends one request frame to the supernode and returns the
// reply unreleased, so that where its bytes live can be compared.
func request(t *testing.T, net transport.Network, req any) transport.Message {
	t.Helper()
	reply, err := transport.RequestReply(net, "sn:8800", transport.Message{Payload: proto.MustMarshal(req)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestWholeTableReplyIsOneSharedFrame: while the table is unchanged,
// every whole-table Register and FetchPeers reply is the same Shared
// frame — simnet delivers it by reference, so the replies share one
// backing array. An edit yields a new frame and leaves the bytes of the
// one already sent alone. Alive acks are Shared constants.
func TestWholeTableReplyIsOneSharedFrame(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800"})
	s.Go("main", func() {
		defer sn.Close()
		if err := sn.Start(); err != nil {
			t.Error(err)
			return
		}
		p1 := n.Node("p1")
		request(t, p1, &proto.Register{Peer: peer("p1")})
		a := request(t, p1, &proto.Register{Peer: peer("p2")})
		b := request(t, p1, &proto.FetchPeers{})
		c := request(t, p1, &proto.Register{Peer: peer("p1")}) // no change: no edit
		for _, r := range []transport.Message{a, b, c} {
			if !r.IsShared() || unsafe.SliceData(r.Payload) != unsafe.SliceData(a.Payload) {
				t.Fatal("replies to an unchanged table are not one shared frame")
			}
		}
		sent := bytes.Clone(a.Payload)

		d := request(t, p1, &proto.Register{Peer: peer("p3")})
		if !d.IsShared() || unsafe.SliceData(d.Payload) == unsafe.SliceData(a.Payload) {
			t.Error("the frame survived an edit")
		}
		if !bytes.Equal(a.Payload, sent) {
			t.Error("the edit wrote into the frame already sent")
		}
		if list, err := proto.UnmarshalPeerList(d.Payload, nil); err != nil || len(list) != 3 {
			t.Errorf("frame after the edit decodes to %d peers (%v), want 3", len(list), err)
		}
		if ack := request(t, p1, &proto.Alive{ID: "p1"}); !ack.IsShared() {
			t.Error("an alive ack was copied")
		}
	})
	s.Wait()
}

// TestWindowedReplyBuiltPerRequest: a window of the table
// (MaxPeersReturned) is drawn and encoded for each request, so no two
// replies share bytes, however long the table stays unchanged.
func TestWindowedReplyBuiltPerRequest(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800", MaxPeersReturned: 2})
	s.Go("main", func() {
		defer sn.Close()
		if err := sn.Start(); err != nil {
			t.Error(err)
			return
		}
		p1 := n.Node("p1")
		for _, id := range []string{"p1", "p2", "p3"} {
			request(t, p1, &proto.Register{Peer: peer(id)})
		}
		seen := map[*byte]bool{}
		for i := 0; i < 4; i++ {
			r := request(t, p1, &proto.FetchPeers{}) // held, never released
			if r.IsShared() || seen[unsafe.SliceData(r.Payload)] {
				t.Fatalf("windowed reply %d is shared", i)
			}
			seen[unsafe.SliceData(r.Payload)] = true
		}
	})
	s.Wait()
}
