package mpi

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/transport"
)

// livenessLog stands between one process and its host's network and
// logs, with the virtual time, every dial attempt, every dial outcome
// and every frame sent on a dialed conn (heartbeats and data alike).
// The process is named by the address it listens on, which Join binds
// before it dials anything.
type livenessLog struct {
	transport.Network
	w    *world
	self string
	log  *[]string
}

func (n *livenessLog) logf(format string, args ...any) {
	*n.log = append(*n.log, fmt.Sprintf("%v %s ", n.w.s.Elapsed(), n.self)+fmt.Sprintf(format, args...))
}

func (n *livenessLog) Listen(addr string) (transport.Listener, error) {
	n.self = addr
	return n.Network.Listen(addr)
}

func (n *livenessLog) dialed(addr string, c transport.Conn, err error) transport.Conn {
	n.logf("dialed %s: %v", addr, err)
	if err != nil {
		return nil
	}
	return sendLog{c, n}
}

func (n *livenessLog) Dial(addr string) (transport.Conn, error) {
	n.logf("dial %s", addr)
	c, err := n.Network.Dial(addr)
	return n.dialed(addr, c, err), err
}

func (n *livenessLog) DialFunc(addr string, done transport.Dialed) {
	n.logf("dial %s", addr)
	n.Network.DialFunc(addr, transport.DialedFunc(func(c transport.Conn, err error) {
		done.Dialed(n.dialed(addr, c, err), err)
	}))
}

type sendLog struct {
	transport.Conn
	n *livenessLog
}

func (c sendLog) Send(m transport.Message) error {
	err := c.Conn.Send(m)
	ev, _ := decodeEnvelope(m)
	if ev.kind == kindHeartbeat {
		c.n.logf("beat → %s: %v", c.RemoteAddr(), err)
	} else {
		c.n.logf("data → %s seq=%d tag=%d: %v", c.RemoteAddr(), ev.seq, ev.tag, err)
	}
	return err
}

// Pinned liveness timeline of the scenario below, recorded while the
// heartbeat and the failure detector were still actors that slept.
const pinLiveness = "e53e2a452eca36c586eab83d9aab6d27848197d8051cf6c36059ce8b0e9122b4"

// pinLivenessDispatched is Dispatched() after that scenario.
const pinLivenessDispatched = 359

// TestLivenessTimelinePinned pins the heartbeat plane and the failure
// detector of a 2×2 job to the nanosecond. Rank 1's backup host is down
// for the first 3 s, so heartbeat dials to and from it fail and walk
// the dial backoff, and each side of rank 1 suspects the other (the
// backup is promoted with an empty log, then demoted by the first beat
// that gets through). Rank 0 streams to rank 1 from 3.5 s; its leader's
// host dies at 5 s, its backup is promoted and resends its log.
func TestLivenessTimelinePinned(t *testing.T) {
	w := newWorld(t, 2, 2)
	var log []string
	w.wrap = func(n transport.Network) transport.Network { return &livenessLog{Network: n, w: w, log: &log} }
	down := w.slots[3].HostID
	w.joined = func(c *Comm) {
		if c.cfg.Self.Global == 3 {
			w.net.FailHost(down)
			w.s.Schedule(3*time.Second, func() { w.net.RestoreHost(down) })
		}
	}
	const msgs = 9
	w.run(t, func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < msgs; i++ {
				if _, _, err := c.RecvTimeout(0, i, 30*time.Second); err != nil {
					return fmt.Errorf("replica %d recv %d: %w", c.Replica(), i, err)
				}
			}
			return nil
		}
		w.s.Sleep(3500 * time.Millisecond)
		for i := 0; i < msgs; i++ {
			if err := c.Send(1, i, Data{Virtual: 1 << 10}); err != nil {
				return err
			}
			w.s.Sleep(300 * time.Millisecond)
			if c.Replica() == 0 && w.s.Elapsed() >= 5*time.Second {
				w.net.FailHost(w.slots[0].HostID)
				return nil // this replica is dead now
			}
		}
		w.s.Sleep(10 * time.Second) // linger so the backup can take over
		return nil
	})
	got, dispatched := nettest.Digest(log), w.s.Dispatched()
	if got != pinLiveness || dispatched != pinLivenessDispatched {
		for _, line := range log {
			t.Log(line)
		}
		t.Errorf("liveness timeline %s after %d events, pinned %s after %d", got, dispatched, pinLiveness, pinLivenessDispatched)
	}
}

// TestLivenessSpawnsNothing: the heartbeat and the failure detector are
// timer chains, so a 2×2 job whose replicas all live spawns its four
// processes and nothing else.
func TestLivenessSpawnsNothing(t *testing.T) {
	w := newWorld(t, 2, 2)
	w.run(t, func(c *Comm) error {
		w.s.Sleep(3 * time.Second) // fifteen beats, six detector rounds
		return nil
	})
	if got := w.s.Spawned(); got != len(w.slots) {
		t.Errorf("%d actors spawned, want the %d processes only", got, len(w.slots))
	}
}

// TestIdleReplicaGroupZeroAllocs: once the replicas' conns are up, a
// virtual second of an idle replicated rank — five beats each way over
// the network, two detector rounds per replica — allocates nothing.
func TestIdleReplicaGroupZeroAllocs(t *testing.T) {
	w := newWorld(t, 1, 2)
	for _, s := range w.slots {
		c, err := Join(Config{Self: s, Slots: w.slots, N: 1, R: 2, Net: w.node(s.HostID), RT: w.s})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	w.s.RunFor(time.Second) // the first beats dial the conns and warm the free lists
	if allocs := testing.AllocsPerRun(10, func() { w.s.RunFor(time.Second) }); allocs > allocSlack {
		t.Errorf("an idle virtual second allocates %.1f times, want 0", allocs)
	}
}
