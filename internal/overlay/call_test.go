package overlay

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/transport"
)

// TestGossipRoundCallMatchesBlocking: a gossip round issues its digest
// as a transport.Call and decodes and applies the reply in the Call's
// continuation, then re-arms its timer. The federation state it logs
// and the conns it closes, at their instants, are pinned to those of
// the same rounds run as RequestReply on a spawned actor against
// members serving from Recv loops.
func TestGossipRoundCallMatchesBlocking(t *testing.T) {
	hosts := []string{"h-a", "h-b", "h-c", "h-d"}
	var log, closes []string
	s, n := fedNet(t, 2, hosts...)
	addrs := []string{"fsn0:8800", "fsn1:8800"}
	sns := internFed(s, func(i int) transport.Network {
		return nettest.LogCloses(n.Node(fmt.Sprintf("fsn%d", i)), s.Elapsed, &closes)
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
	for _, sn := range sns {
		if sn.MergedCount() != len(hosts) || sn.Stats().GossipExchanges == 0 {
			t.Fatalf("the federation did not converge through gossip: %q", log[len(log)-2:])
		}
	}
	if got := nettest.Digest(log, closes); len(closes) == 0 || got != "322206d2cb24c6c474559502bb407a4ecc2a46bb5df8fc082d772c8e751e423e" {
		t.Fatalf("log %q closes %q: digest %s, pinned 322206d2cb24c6c474559502bb407a4ecc2a46bb5df8fc082d772c8e751e423e", log, closes, got)
	}
	if spawned := s.Spawned(); spawned != 1 {
		t.Fatalf("the world spawned %d actors, want the registering client only", spawned)
	}
	t.Logf("%d FINs; %s", len(closes), log[len(log)-1])
}
