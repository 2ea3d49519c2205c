package overlay

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/transport"
)

// TestGossipRoundCallMatchesBlocking: a gossip round issues its digest
// as a transport.Call and decodes and applies the reply in the Call's
// continuation, then re-arms its timer; behind nettest.PullOnly the same
// rounds run as RequestReply on a spawned actor and the members serve
// from Recv loops. Both must log the same federation state at the same
// instants and close the same conns at the same instants.
func TestGossipRoundCallMatchesBlocking(t *testing.T) {
	hosts := []string{"h-a", "h-b", "h-c", "h-d"}
	run := func(pull bool) (log, closes []string, spawned int, converged bool) {
		s, n := fedNet(t, 2, hosts...)
		addrs := []string{"fsn0:8800", "fsn1:8800"}
		sns := internFed(s, func(i int) transport.Network {
			node := nettest.LogCloses(n.Node(fmt.Sprintf("fsn%d", i)), s.Elapsed, &closes)
			if pull {
				node = nettest.PullOnly(node)
			}
			return node
		}, addrs, nil, nil)
		startAll(t, sns)
		s.Go("register", func() {
			for _, h := range hosts {
				registerHome(t, n, addrs, peer(h))
			}
		})
		for i := 0; i < 12; i++ {
			s.RunFor(50 * time.Millisecond)
			for k, sn := range sns {
				st := sn.Stats()
				log = append(log, fmt.Sprintf("%v fsn%d versions=%v merged=%d exchanges=%d in=%d out=%d stale=%d",
					s.Elapsed(), k, sn.KnownVersions(), sn.MergedCount(), st.GossipExchanges, st.GossipBytesIn, st.GossipBytesOut, st.StaleSumNS))
			}
		}
		converged = true
		for _, sn := range sns {
			converged = converged && sn.MergedCount() == len(hosts) && sn.Stats().GossipExchanges > 0
		}
		return log, closes, s.Spawned(), converged
	}
	log, closes, spawned, converged := run(false)
	pullLog, pullCloses, pullSpawned, _ := run(true)
	if !converged {
		t.Fatalf("the federation did not converge through gossip: %q", log[len(log)-2:])
	}
	if !slices.Equal(log, pullLog) {
		t.Fatalf("federation logs diverge\ncallback: %q\npull:     %q", log, pullLog)
	}
	if len(closes) == 0 || !slices.Equal(closes, pullCloses) {
		t.Fatalf("close logs diverge\ncallback: %q\npull:     %q", closes, pullCloses)
	}
	if spawned != 1 || pullSpawned <= spawned {
		t.Fatalf("the callback world spawned %d actors (want the registering client only), its PullOnly twin %d", spawned, pullSpawned)
	}
	t.Logf("%d FINs; %s", len(closes), log[len(log)-1])
}
