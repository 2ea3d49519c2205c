package simnet

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// arrivals is a Receiver that records where each delivered payload
// lives and releases it, as every production receiver does.
type arrivals struct {
	data []*byte
	lens []int
}

func (a *arrivals) Receive(m transport.Message, err error) {
	if err != nil {
		return
	}
	a.data = append(a.data, unsafe.SliceData(m.Payload))
	a.lens = append(a.lens, len(m.Payload))
	m.Release()
}

// sharedPair is a conn a1 → b1, its sender's shard and a way to drive
// the network until in-flight frames have landed.
type sharedPair struct {
	client transport.Conn
	sender *vtime.Scheduler
	drive  func()
	msg    transport.Message // what fire sends
	fire   func()
}

// newSharedPair dials a1 (east) → b1 (west) on one shard, or on two
// when sharded, with every data frame duplicated when dup is set, and
// returns the pair and the server's recorder.
func newSharedPair(t *testing.T, sharded, dup bool) (*sharedPair, *arrivals) {
	t.Helper()
	topo := &StaticTopology{
		HostSite: map[string]string{"a1": "east", "b1": "west"},
		DefLat:   5 * time.Millisecond,
	}
	p := &sharedPair{}
	p.fire = func() {
		if err := p.client.Send(p.msg); err != nil {
			t.Error(err)
		}
	}
	var n *Net
	if sharded {
		dom := vtime.NewDomain(2, 5*time.Millisecond)
		t.Cleanup(dom.Shutdown)
		n = NewSharded(dom, topo, DefaultConfig(1), ShardConfig{
			SiteShard: map[string]int{"east": 0, "west": 1},
			Hosts:     []string{"a1", "b1"},
			Check:     true,
		})
		p.sender, p.drive = dom.Shard(0), func() { dom.RunFor(100 * time.Millisecond) }
	} else {
		s := vtime.New()
		t.Cleanup(s.Shutdown)
		n = New(s, topo, DefaultConfig(1))
		p.sender, p.drive = s, func() { s.RunFor(100 * time.Millisecond) }
	}
	if dup {
		n.SetDuplication(1, 10*time.Millisecond)
	}
	l, err := n.Node("b1").Listen("b1:1")
	if err != nil {
		t.Fatal(err)
	}
	got := &arrivals{data: make([]*byte, 0, 1024), lens: make([]int, 0, 1024)}
	l.OnConn(func(c transport.Conn) { c.OnRecv(got, 0) })
	p.sender.Schedule(0, func() {
		n.Node("a1").DialFunc("b1:1", transport.DialedFunc(func(c transport.Conn, err error) {
			if err != nil {
				t.Error(err)
			}
			p.client = c
		}))
	})
	p.drive()
	if p.client == nil {
		t.Fatal("dial did not complete")
	}
	return p, got
}

// send sends m from an event on the sender's shard and drives the
// network until it has landed.
func (p *sharedPair) send(m transport.Message) {
	p.msg = m
	p.sender.Schedule(0, p.fire)
	p.drive()
}

// TestSharedSendTravelsByReference: a Shared payload is immutable, so
// simnet hands the receiver the sender's own bytes — no copy, no pool
// buffer, no allocation — on one shard, across shards (where an
// unshared payload is re-homed at the barrier) and on the duplicate
// path (where an unshared payload is copied once more). The receiver's
// Release gives nothing to the pool: a pooled send of the same size
// afterwards lands in a buffer of its own and the frame keeps its bytes.
func TestSharedSendTravelsByReference(t *testing.T) {
	for _, tc := range []struct {
		name         string
		sharded, dup bool
	}{
		{"one shard", false, false},
		{"across shards", true, false},
		{"duplicated", false, true},
		{"duplicated across shards", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, got := newSharedPair(t, tc.sharded, tc.dup)
			frame := make([]byte, 8<<10)
			for i := range frame {
				frame[i] = byte(i * 7)
			}
			want := bytes.Clone(frame)
			shared := transport.Shared(frame)
			allocs := testing.AllocsPerRun(50, func() { p.send(shared) })

			copies := 1
			if tc.dup {
				copies = 2
			}
			if len(got.data) != 51*copies {
				t.Fatalf("%d deliveries of 51 sends, want %d", len(got.data), 51*copies)
			}
			for i, d := range got.data {
				if d != &frame[0] || got.lens[i] != len(frame) {
					t.Fatalf("delivery %d landed in a copy", i)
				}
			}
			if allocs != 0 {
				t.Errorf("%v allocs per Shared send, want 0", allocs)
			}

			other := bytes.Repeat([]byte{0xaa}, len(frame))
			p.send(transport.Message{Payload: other})
			if last := got.data[len(got.data)-1]; last == &frame[0] || last == &other[0] {
				t.Fatal("a pooled send landed in the Shared frame or in the sender's buffer")
			}
			if !bytes.Equal(frame, want) {
				t.Fatal("the Shared frame's bytes changed after its receivers released it")
			}
		})
	}
}

// TestDialIsOneRecord: a dial is one handshake record of at most 256 B
// (the 256 B size class; it was 336 B in the 352 B class while each
// endpoint kept its addresses and the network), and a DialFunc +
// accept + close cycle allocates that record and nothing else.
func TestDialIsOneRecord(t *testing.T) {
	if size := unsafe.Sizeof(handshake{}); size > 256 {
		t.Fatalf("handshake record is %d B, want at most 256", size)
	}
	s, n := testNet(t, DefaultConfig(5))
	l, err := n.Node("b1").Listen("b1:100")
	if err != nil {
		t.Fatal(err)
	}
	l.OnConn(func(c transport.Conn) { c.Close() })
	dialed := 0
	done := transport.DialedFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		dialed++
		c.Close()
	})
	node := n.Node("a1")
	avg := testing.AllocsPerRun(200, func() {
		node.DialFunc("b1:100", done)
		s.Wait()
	})
	if dialed != 201 {
		t.Fatalf("%d of 201 dials completed", dialed)
	}
	if avg != 1 {
		t.Fatalf("%.1f allocs per dial cycle, want exactly 1 (the handshake record)", avg)
	}
}

// TestAddressesSpelledOnDemand: endpoints keep ports, not addresses,
// and spell the same "host:port" strings the listener and the dialer's
// ephemeral port name; a port that is not a number cannot be bound.
func TestAddressesSpelledOnDemand(t *testing.T) {
	s, n := testNet(t, DefaultConfig(5))
	l, err := n.Node("b1").Listen("b1:100")
	if err != nil {
		t.Fatal(err)
	}
	var server transport.Conn
	l.OnConn(func(c transport.Conn) { server = c })
	var client transport.Conn
	n.Node("a1").DialFunc("b1:100", transport.DialedFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Error(err)
		}
		client = c
	}))
	s.Wait()
	if client == nil || server == nil {
		t.Fatal("dial did not complete")
	}
	if got := client.RemoteAddr(); got != "b1:100" || server.LocalAddr() != got {
		t.Errorf("listener side spelled %q / %q, want b1:100", got, server.LocalAddr())
	}
	if got := client.LocalAddr(); got != "a1:20001" || server.RemoteAddr() != got {
		t.Errorf("dialer side spelled %q / %q, want a1:20001", got, server.RemoteAddr())
	}
	for _, bad := range []string{"b1:mpd", "b1:0100", "b1:-1", "b1:99999999999"} {
		if _, err := n.Node("b1").Listen(bad); err == nil {
			t.Errorf("Listen(%q) bound a port that is not a number", bad)
		}
	}
}
