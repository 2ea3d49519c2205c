package reservation

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
)

// TestBrokerCallMatchesBlocking: one brokering round over five peers —
// three free, one busy, one dead — then ReleaseAll of what it won, from
// a submitter whose RPCs are delivery events (transport.Call), spawning
// no actor. The BrokerResult, the holds before and after and every FIN,
// to the nanosecond, are pinned to what RequestReply on a spawned actor
// per peer produced.
func TestBrokerCallMatchesBlocking(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4", "h5"}
	var fp, closes []string
	s, n := world(t, append([]string{"frontal"}, hosts...)...)
	wrap := func(nn transport.Network) transport.Network { return nettest.LogCloses(nn, s.Elapsed, &closes) }
	services := make(map[string]*Service, len(hosts))
	var cands []proto.PeerInfo
	for _, h := range hosts {
		services[h] = New(s, wrap(n.Node(h)), Config{Addr: h + ":9001", J: 1, P: 2})
		cands = append(cands, peerInfo(h))
	}
	holds := func() string {
		out := ""
		for _, h := range hosts {
			out += fmt.Sprintf(" %s=%d", h, services[h].Held())
		}
		return out
	}
	front := wrap(n.Node("frontal"))
	s.Go("main", func() {
		for _, h := range hosts {
			services[h].Start()
		}
		reserveVia(t, s, n, "frontal", &proto.Reserve{Key: "other", JobID: "j0", Submitter: submitter()}, "h2:9001")
		n.FailHost("h4")
		before := s.Spawned()
		res := Broker(s, front, cands, proto.Reserve{Key: "k", JobID: "j", Submitter: submitter(), N: 4}, time.Second)
		fp = append(fp, fmt.Sprintf("%v offers %+v refused %+v dead %+v", s.Elapsed(), res.Offers, res.Refused, res.Dead),
			"held"+holds())
		ReleaseAll(s, front, append(offerPeers(res.Offers), peerInfo("h4")), "k", time.Second)
		fp = append(fp, fmt.Sprintf("%v released, held%s", s.Elapsed(), holds()))
		if spawned := s.Spawned() - before; spawned != 0 {
			t.Errorf("%d actors spawned, want none", spawned)
		}
		if len(res.Offers) != 3 || len(res.Refused) != 1 || len(res.Dead) != 1 {
			t.Error(fp[0])
		}
	})
	s.Wait()
	if got := nettest.Digest(fp, closes); len(closes) == 0 || got != "9e0b1ed732d1d845ba4e12f3c49382e4b6b449342ae29e76a8a1f59fe8eeaf3d" {
		t.Errorf("results %q closes %q: digest %s, pinned 9e0b1ed732d1d845ba4e12f3c49382e4b6b449342ae29e76a8a1f59fe8eeaf3d", fp, closes, got)
	}
}
