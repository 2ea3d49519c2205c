package mpd

import (
	"testing"
	"time"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// TestLifecycleQueuesOneEventPerInstant: an idle daemon keeps at most one
// queued lifecycle event per deadline, however many rounds it has run.
// The default intervals (ping 20 s, alive 30 s, refresh 60 s) make rounds
// complete and arm a deadline earlier than the tick already queued; the
// tick at that earlier deadline must not queue a twin of the later one,
// or each twin fires empty, re-arms, and the daemon's queued events grow
// with every round. The rounds run inside their timer events, so no hour
// spawns an actor, and the rounds themselves must not change: hour 6
// fires the events hour 2 does.
func TestLifecycleQueuesOneEventPerInstant(t *testing.T) {
	tb := newTestbedWith(t, 4, 4, 2, func(_ *vtime.Scheduler, _ string, n transport.Network) transport.Network { return n },
		func(s *Shared) { s.PingInterval = 0 })
	tb.boot(t)
	defer tb.close()

	daemons := 1 + len(tb.peers)
	// What is queued beside the daemons' own timers: the supernode's
	// sweep and whatever the last round left in flight.
	const constant = 4
	limit := 3*daemons + constant
	firedIn := make([]int, 7) // events fired per virtual hour
	most := 0
	for h := 1; h <= 6; h++ {
		spawned, fired := tb.s.Spawned(), tb.s.Dispatched()
		for m := 0; m < 6; m++ {
			tb.s.RunFor(10 * time.Minute)
			n := tb.s.PendingEvents()
			most = max(most, n)
			if n > limit {
				t.Fatalf("hour %d+%d0m: %d events queued, want at most %d (3 per daemon + %d)", h-1, m+1, n, limit, constant)
			}
		}
		if n := tb.s.Spawned() - spawned; n != 0 {
			t.Fatalf("hour %d spawned %d actors, want none", h, n)
		}
		firedIn[h] = tb.s.Dispatched() - fired
	}
	t.Logf("%d daemons: at most %d events queued; events per hour %v", daemons, most, firedIn[1:])
	if d := firedIn[6] - firedIn[2]; d > firedIn[2]/50 || d < -firedIn[2]/50 {
		t.Fatalf("hour 2 fired %d events, hour 6 %d: want the same ± 2 %%", firedIn[2], firedIn[6])
	}
}
