package mpd

import (
	"testing"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/vtime"
)

// TestPingExchangeAllocs bounds one latency probe of §4.1, both sides:
// a ping round of one peer (pingRound, its Call and the dial) and the
// probed daemon answering it (Serve and serve). Per round that is the
// round's own count, request buffer and peer list, then per ping its
// continuation, the Call's exchange, the dial's record and address,
// Serve's Receiver and the daemon's frame handler; the pong is built
// in lent scratch. The same round cost 24 allocations while every
// ping marshalled its own request, every conn got a connServer with a
// scratch frame of its own, and the exchange and dial plumbing were
// closures and separate objects.
func TestPingExchangeAllocs(t *testing.T) {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	net := simnet.New(s, &simnet.StaticTopology{
		HostSite: map[string]string{"a": "east", "b": "west"},
		DefLat:   time.Millisecond,
	}, simnet.DefaultConfig(9))
	// No supernode answers: registration fails on the spot, and the
	// periodic rounds are far beyond the measured window.
	shared := &Shared{SupernodeAddr: "nosn:8800", NoBootPing: true}
	mk := func(id, site string) *MPD {
		return New(s, net.Node(id), Config{
			Self:   proto.PeerInfo{ID: id, Site: site, MPDAddr: id + ":9000", RSAddr: id + ":9001"},
			P:      1,
			Shared: shared,
		})
	}
	a, b := mk("a", "east"), mk("b", "west")
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	a.cache.Update([]proto.PeerInfo{b.cfg.Self})
	rounds := 0
	then := func() { rounds++ }
	round := func() {
		a.pingRound(then)
		s.RunFor(100 * time.Millisecond)
	}
	round() // the first answer builds b's latency estimator
	avg := testing.AllocsPerRun(50, round)
	if rounds != 52 || b.Stats().PingsAnswered != 52 {
		t.Fatalf("%d rounds ended, %d pings answered, want 52 each", rounds, b.Stats().PingsAnswered)
	}
	if avg > 9 {
		t.Fatalf("%.1f allocs per ping round of one peer, want at most 9", avg)
	}
	t.Logf("%.1f allocs per ping round of one peer", avg)
}
