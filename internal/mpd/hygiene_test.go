package mpd

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// TestMPDCrashRestoreCloseHygiene: the MPD serves inbound frames from
// the delivery event, with no actor parked per connection. One client
// conn held across a crash, a reboot and the daemon's Close: nothing is
// served while the host is down, the surviving endpoint answers again
// after the reboot (the daemon object outlives a crash), garbage makes
// the daemon hang up, a closed daemon hangs up without answering, and
// no serving actor is left behind. The client's log and the daemon-side
// closes on the MPD port (each a FIN) are those of the
// accept-loop-and-Recv-loop path, to the nanosecond.
func TestMPDCrashRestoreCloseHygiene(t *testing.T) {
	scenario := func(pull bool) (log, closes []string, answered, actors int) {
		tb := newTestbedOn(t, 1, 0, 2, func(s *vtime.Scheduler, n transport.Network) transport.Network {
			n = nettest.LogCloses(n, s.Elapsed, &closes)
			if pull {
				n = nettest.PullOnly(n)
			}
			return n
		})
		tb.boot(t)
		closes = nil // boot-time traffic
		peer := tb.peers[0]
		host := peer.cfg.Self.ID
		before := peer.Stats().PingsAnswered
		actors = tb.s.Actors()
		p := &nettest.Probe{Net: tb.net.Node("frontal"), Elapsed: tb.s.Elapsed, Name: func(b []byte) string {
			_, msg, _ := proto.Unmarshal(b)
			return fmt.Sprintf("%T", msg)
		}}
		ping := func(nonce uint64) []byte { return proto.MustMarshal(&proto.Ping{Nonce: nonce}) }
		tb.s.Go("client", func() {
			p.Dial(peer.cfg.Self.MPDAddr)
			p.Ask("up", ping(1))
			tb.killHost(host)
			p.Ask("down", ping(2))
			tb.net.RestoreHost(host)
			p.Ask("rebooted", ping(3))
			p.Ask("garbage", []byte{0xff, 0xff})
			p.Dial(peer.cfg.Self.MPDAddr)
			p.Ask("again", proto.MustMarshal(&proto.JobPing{Nonce: 4, JobID: "nobody"}))
			peer.Close()
			p.Ask("closed", ping(5))
		})
		tb.s.RunFor(5 * time.Second) // short of the next periodic round
		// Keep the serving side: endpoints of the MPD port.
		closes = slices.DeleteFunc(closes, func(l string) bool { return !strings.Contains(l, ":9000→") })
		return p.Log, closes, int(peer.Stats().PingsAnswered - before), tb.s.Actors() - actors
	}
	log, closes, answered, actors := scenario(false)
	pullLog, pullCloses, _, _ := scenario(true)
	nettest.ExpectSuffixes(t, log, "dial: <nil>", "up: *proto.Pong", "down: transport: timeout", "rebooted: *proto.Pong",
		"garbage: transport: closed", "dial: <nil>", "again: *proto.JobPong", "closed: transport: closed")
	if answered != 2 { // nonces 1 and 3; 2 never arrived, 5 found the daemon closed
		t.Errorf("%d pings answered, want 2", answered)
	}
	if actors != 0 {
		t.Errorf("%d more actors after the exchange than before it, want none", actors)
	}
	if !slices.Equal(log, pullLog) {
		t.Errorf("client log diverged\ncallback: %q\npull:     %q", log, pullLog)
	}
	// The MPD closes two endpoints: on garbage, and once closed.
	if len(closes) != 2 || !slices.Equal(closes, pullCloses) {
		t.Errorf("daemon-side closes diverged or unexpected\ncallback: %q\npull:     %q", closes, pullCloses)
	}
}
