package overlay

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/proto"
)

// TestSupernodeCrashRestoreCloseHygiene: the supernode serves inbound
// frames from the delivery event — no accept actor, no actor per
// connection. One client conn held across a crash, a reboot and the
// daemon's Close: nothing is served while the host is down, the
// surviving endpoint answers again after the reboot, garbage makes the
// daemon hang up, a closed supernode hangs up without touching its
// table, and no supernode actor is left at quiesce (the sweep is a
// timer chain). The client's log
// and the daemon-side closes (each a FIN) are pinned to those of the
// accept-loop-and-Recv-loop path, to the nanosecond.
func TestSupernodeCrashRestoreCloseHygiene(t *testing.T) {
	scenario := func() (log, closes []string, listed, actors int) {
		s, n := simWorld(t)
		node := nettest.LogCloses(n.Node("sn"), s.Elapsed, &closes)
		sn := NewSupernode(s, node, SupernodeConfig{Addr: "sn:8800", SweepInterval: time.Hour})
		p := &nettest.Probe{Net: n.Node("p1"), Elapsed: s.Elapsed, Name: func(b []byte) string {
			if proto.Peek(b) == proto.TPeerList {
				return "peer list"
			}
			_, msg, _ := proto.Unmarshal(b)
			return fmt.Sprintf("%T", msg)
		}}
		register := func(id string) []byte { return proto.MustMarshal(&proto.Register{Peer: peer(id)}) }
		s.Go("client", func() {
			sn.Start()
			p.Dial("sn:8800")
			p.Ask("up", register("p1"))
			n.FailHost("sn")
			p.Ask("down", register("p2"))
			n.RestoreHost("sn")
			p.Ask("rebooted", register("p3"))
			p.Ask("garbage", []byte{0xff, 0xff})
			p.Dial("sn:8800")
			p.Ask("again", proto.MustMarshal(&proto.Alive{ID: "p1"}))
			sn.Close()
			p.Ask("closed", register("p4"))
			listed = sn.PeerCount()
			actors = s.Actors() - 1 // not counting this client
		})
		s.RunFor(time.Minute)
		return p.Log, closes, listed, actors
	}
	log, closes, listed, actors := scenario()
	nettest.ExpectSuffixes(t, log, "dial: <nil>", "up: peer list", "down: transport: timeout", "rebooted: peer list",
		"garbage: transport: closed", "dial: <nil>", "again: *proto.AliveAck", "closed: transport: closed")
	if listed != 2 { // p1 and p3; p2 never arrived, p4 found the daemon closed
		t.Errorf("%d peers listed, want 2", listed)
	}
	if actors != 0 {
		t.Errorf("%d supernode actors at quiesce, want none", actors)
	}
	// The supernode closes two endpoints: on garbage, and once closed.
	if got := nettest.Digest(log, closes); len(closes) != 2 || got != "8109ed1caae962fb36e97c80e05f75925520d1d90fd9cbc36b8b8932e4ab9cbe" {
		t.Errorf("log %q closes %q: digest %s, pinned 8109ed1caae962fb36e97c80e05f75925520d1d90fd9cbc36b8b8932e4ab9cbe", log, closes, got)
	}
}
