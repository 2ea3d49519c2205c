package reservation

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
)

// TestBrokerCallMatchesBlocking: one brokering round over five peers —
// three free, one busy, one dead — then ReleaseAll of what it won, from
// a submitter whose RPCs are delivery events (transport.Call on
// simnet) and from its PullOnly twin (RequestReply on a spawned actor
// per peer): same BrokerResult, same holds before and after, same FINs
// at the same nanoseconds, and no actor on the callback side.
func TestBrokerCallMatchesBlocking(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4", "h5"}
	run := func(pull bool) (fp, closes []string, spawned int) {
		s, n := world(t, append([]string{"frontal"}, hosts...)...)
		wrap := func(nn transport.Network) transport.Network {
			nn = nettest.LogCloses(nn, s.Elapsed, &closes)
			if pull {
				nn = nettest.PullOnly(nn)
			}
			return nn
		}
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
			spawned = s.Spawned() - before
			if len(res.Offers) != 3 || len(res.Refused) != 1 || len(res.Dead) != 1 {
				t.Errorf("pull=%v: %s", pull, fp[0])
			}
		})
		s.Wait()
		return fp, closes, spawned
	}
	fp, closes, spawned := run(false)
	pullFP, pullCloses, pullSpawned := run(true)
	if !slices.Equal(fp, pullFP) {
		t.Errorf("results diverged\ncallback: %q\npull:     %q", fp, pullFP)
	}
	if len(closes) == 0 || !slices.Equal(closes, pullCloses) {
		t.Errorf("close logs diverged\ncallback: %q\npull:     %q", closes, pullCloses)
	}
	if spawned != 0 || pullSpawned < 9 { // five brokered, four released, plus the pull servers' conns
		t.Errorf("%d actors by callback (want none), %d by pull (want at least one per RPC, 9)", spawned, pullSpawned)
	}
}
