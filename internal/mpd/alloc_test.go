package mpd

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"p2pmpi/internal/core"
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
	round() // the first round materializes a's cache and warms the pools
	avg := testing.AllocsPerRun(50, round)
	if rounds != 52 || b.Stats().PingsAnswered != 52 {
		t.Fatalf("%d rounds ended, %d pings answered, want 52 each", rounds, b.Stats().PingsAnswered)
	}
	if avg > 9 {
		t.Fatalf("%.1f allocs per ping round of one peer, want at most 9", avg)
	}
	t.Logf("%.1f allocs per ping round of one peer", avg)
}

// TestSubmitExclusionAllocsFlat: a Submit whose Exclude answers from a
// saturated ledger asks it once per entry the booking walk reaches, and
// builds nothing from the busy set. Two identical testbeds submit the
// same job, one with no host busy, one against a ledger that saturates
// 10 000 hosts the walk never reaches; the second allocates no more
// bytes than the first beyond noise. Building the busy set per
// submission (its ID list, a copy, and a lookup map) cost the second
// over a megabyte.
func TestSubmitExclusionAllocsFlat(t *testing.T) {
	const busy = 10_000
	submitBytes := func(ledger *core.Ledger) uint64 {
		tb := newTestbed(t, 4, 4, 2)
		tb.boot(t)
		defer tb.close()
		spec := JobSpec{Program: "hostname", N: 2, R: 1, Strategy: core.Spread, Exclude: ledger.Saturated}
		if _, err := tb.submit(t, spec); err != nil { // warm-up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tb.submit(t, spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	hosts := make([]core.HostSlot, busy)
	u := make([]int, busy)
	for i := range hosts {
		hosts[i] = core.HostSlot{ID: fmt.Sprintf("elsewhere%05d", i), P: 1}
		u[i] = 1
	}
	saturated := core.NewLedger(hosts, 1)
	saturated.Acquire(&core.Assignment{Hosts: hosts, U: u})
	free, full := submitBytes(core.NewLedger(hosts, 1)), submitBytes(saturated)
	t.Logf("one Submit allocates %d B with no host busy, %d B with %d busy", free, full, busy)
	if full > free+64<<10 {
		t.Fatalf("with %d hosts busy a Submit allocates %d B more than with none", busy, full-free)
	}
}
