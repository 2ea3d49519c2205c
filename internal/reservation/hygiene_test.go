package reservation

import (
	"fmt"
	"slices"
	"testing"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/proto"
)

// TestServiceCrashRestoreCloseHygiene: the RS serves inbound frames from
// the delivery event, with no actor parked per connection. One client
// conn held across a crash, a reboot and the daemon's Close: nothing is
// served while the host is down, the surviving endpoint answers again
// after the reboot, garbage makes the daemon hang up, a closed RS
// refuses without holding anything, and no serving actor is left
// behind. The client's log and the daemon-side closes (each a FIN) are
// those of the accept-loop-and-Recv-loop path, to the nanosecond.
func TestServiceCrashRestoreCloseHygiene(t *testing.T) {
	scenario := func(pull bool) (log, closes []string, held, actors int) {
		s, n := world(t, "frontal", "h1")
		node := nettest.LogCloses(n.Node("h1"), s.Elapsed, &closes)
		if pull {
			node = nettest.PullOnly(node)
		}
		rs := New(s, node, Config{Addr: "h1:9001", J: 8, P: 2})
		p := &nettest.Probe{Net: n.Node("frontal"), Elapsed: s.Elapsed, Name: func(b []byte) string {
			_, msg, _ := proto.Unmarshal(b)
			return fmt.Sprintf("%T", msg)
		}}
		reserve := func(key string) []byte {
			return proto.MustMarshal(&proto.Reserve{Key: key, JobID: "j-" + key, Submitter: submitter()})
		}
		s.Go("client", func() {
			rs.Start()
			p.Dial("h1:9001")
			p.Ask("up", reserve("a"))
			n.FailHost("h1")
			rs.FailAll() // what the host's MPD does to its RS on a crash
			p.Ask("down", reserve("b"))
			n.RestoreHost("h1")
			p.Ask("rebooted", reserve("c"))
			p.Ask("garbage", []byte{0xff, 0xff})
			p.Dial("h1:9001")
			p.Ask("again", reserve("d"))
			held = rs.Held()
			rs.Close()
			p.Ask("closed", reserve("e"))
			if rs.Held() != held {
				t.Errorf("pull=%v: a closed RS took a hold", pull)
			}
		})
		s.Wait()
		return p.Log, closes, held, s.Actors()
	}
	log, closes, held, actors := scenario(false)
	pullLog, pullCloses, _, _ := scenario(true)
	nettest.ExpectSuffixes(t, log, "dial: <nil>", "up: *proto.ReserveOK", "down: transport: timeout", "rebooted: *proto.ReserveOK",
		"garbage: transport: closed", "dial: <nil>", "again: *proto.ReserveOK", "closed: *proto.ReserveNOK")
	if held != 2 { // c and d; a died with the crash, b never arrived
		t.Errorf("%d holds before Close, want 2", held)
	}
	if actors != 0 {
		t.Errorf("%d actors left at quiesce, want none", actors)
	}
	if !slices.Equal(log, pullLog) {
		t.Errorf("client log diverged\ncallback: %q\npull:     %q", log, pullLog)
	}
	// The RS closes one endpoint: the one that sent garbage.
	if len(closes) != 1 || !slices.Equal(closes, pullCloses) {
		t.Errorf("daemon-side closes diverged or unexpected\ncallback: %q\npull:     %q", closes, pullCloses)
	}
}
