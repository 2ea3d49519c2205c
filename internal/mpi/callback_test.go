package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// TestDeliverReleasesUnaliasedFrames: deliver hands the transport's
// pooled copy back whenever nothing decoded from it aliases it — a
// header-only envelope (all virtual-size traffic, every heartbeat) and
// a corrupt frame — and keeps it when the envelope's bytes point into
// it. Without the release the pool never recycles on the MPI path and
// carves fresh blocks for every message in flight.
func TestDeliverReleasesUnaliasedFrames(t *testing.T) {
	w := newWorld(t, 1, 2, Algorithms{})
	c, err := Join(Config{Self: w.slots[0], Slots: w.slots, N: 1, R: 2, Net: w.node(w.slots[0].HostID), RT: w.s})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var pool transport.BufferPool
	// pooled copies a frame into a pool buffer, as simnet does on send.
	pooled := func(frame []byte, virtual int64) transport.Message {
		buf := pool.Get(len(frame))
		copy(buf, frame)
		return transport.Pooled(buf, virtual, &pool)
	}
	// recycled reports whether m's buffer is the next one the pool hands
	// out, i.e. whether deliver released it (the free list is LIFO).
	recycled := func(m transport.Message) bool {
		next := pool.Get(len(m.Payload))
		return &next[0] == &m.Payload[0]
	}

	virtual := pooled(encodeEnvelope(envelope{kind: kindData, dstRank: 0, seq: 1, tag: 3}).Payload, 1<<20)
	if !c.deliver(virtual) || !recycled(virtual) {
		t.Error("a header-only data frame was not released")
	}
	hb := pooled(encodeEnvelope(envelope{kind: kindHeartbeat, srcReplica: 1}).Payload, 0)
	if !c.deliver(hb) || !recycled(hb) {
		t.Error("a heartbeat frame was not released")
	}
	corrupt := pooled([]byte("short"), 0)
	if !c.deliver(corrupt) || !recycled(corrupt) {
		t.Error("a corrupt frame was not released (or closed the endpoint)")
	}
	data := pooled(encodeEnvelope(envelope{kind: kindData, seq: 2, tag: 4, data: Data{Bytes: []byte("payload")}}).Payload, 0)
	if !c.deliver(data) || recycled(data) {
		t.Error("a frame whose bytes the envelope aliases was released")
	}
	if c.inbox.Len() != 2 {
		t.Fatalf("inbox holds %d envelopes, want the two data frames", c.inbox.Len())
	}
	c.inbox.Pop()
	if v, _ := c.inbox.Pop(); string(v.(envelope).data.Bytes) != "payload" {
		t.Fatalf("aliased payload reads %q", v.(envelope).data.Bytes)
	}
}

// TestAlltoallHoldsNoReceiveActors: inbound frames run to completion in
// the delivery event, so after a 32-rank all-to-all — every rank has an
// inbound conn from every other — the scheduler holds the 32 rank actors
// and nothing else. The PullOnly twin shows what the count would be with
// an accept loop per rank and a Recv loop per inbound conn.
func TestAlltoallHoldsNoReceiveActors(t *testing.T) {
	const n = 32
	actorsAfterAlltoall := func(wrap func(transport.Network) transport.Network) int {
		w := newWorld(t, n, 1, Algorithms{})
		w.wrap = wrap
		hold := w.s.NewMailbox()
		actors := -1
		w.s.Go("observer", func() {
			// Every rank is parked on hold once the world goes quiet.
			w.s.Sleep(time.Minute)
			actors = w.s.Actors() - 1 // not counting the observer
			hold.Close()
		})
		w.run(t, func(c *Comm) error {
			parts := make([]Data, n)
			for i := range parts {
				parts[i] = Data{Virtual: 1 << 10}
			}
			if _, err := c.Alltoall(parts); err != nil {
				return err
			}
			hold.Pop()
			return nil
		})
		return actors
	}
	if got := actorsAfterAlltoall(nil); got != n {
		t.Errorf("%d live actors after the all-to-all, want the %d ranks only", got, n)
	}
	if got, want := actorsAfterAlltoall(nettest.PullOnly), n+n+n*(n-1); got != want {
		t.Errorf("pull-only: %d live actors, want %d (ranks + accept loops + pumps)", got, want)
	}
}

// arrivalLog records every envelope reaching a Comm's inbox — network
// deliveries and self-deliveries alike — as (elapsed, src, tag, seq).
type arrivalLog struct {
	vtime.Mailbox
	s   *vtime.Scheduler
	log *[]string
}

func (m arrivalLog) Push(v any) {
	ev := v.(envelope)
	*m.log = append(*m.log, fmt.Sprintf("%v src=%d.%d tag=%d seq=%d", m.s.Elapsed(), ev.srcRank, ev.srcReplica, ev.tag, ev.seq))
	m.Mailbox.Push(v)
}

// arrivals runs fn on a fresh n×r world and returns every slot's arrival
// log, through the callback path or (pull) through Serve's fallback.
func arrivals(t *testing.T, n, r int, pull bool, fn func(w *world, c *Comm) error) [][]string {
	w := newWorld(t, n, r, Algorithms{})
	if pull {
		w.wrap = nettest.PullOnly
	}
	logs := make([][]string, len(w.slots))
	w.joined = func(c *Comm) {
		c.inbox = arrivalLog{c.inbox, w.s, &logs[c.cfg.Self.Global]}
	}
	w.run(t, func(c *Comm) error { return fn(w, c) })
	return logs
}

func equalArrivals(t *testing.T, callback, pull [][]string) {
	t.Helper()
	for g := range callback {
		if len(callback[g]) == 0 {
			t.Errorf("slot %d logged no arrival", g)
		}
		if !slices.Equal(callback[g], pull[g]) {
			t.Errorf("slot %d diverged\ncallback:\n  %s\npull:\n  %s", g,
				strings.Join(callback[g], "\n  "), strings.Join(pull[g], "\n  "))
		}
	}
}

// TestArrivalsCallbackMatchesPull: "event → rank" and "event → pump →
// rank" are the same simulation. A scripted mix — a ring of real
// payloads, wildcard receives, an all-to-all of virtual megabytes that
// contends for NICs and the backbone, a fan-out, an allreduce — leaves
// the same per-slot arrival log, to the nanosecond, either way.
func TestArrivalsCallbackMatchesPull(t *testing.T) {
	const n = 6
	script := func(w *world, c *Comm) error {
		me := c.Rank()
		if err := c.Send((me+1)%n, 1, Data{Bytes: []byte{byte(me)}}); err != nil {
			return err
		}
		if _, _, err := c.Recv(AnySource, AnyTag); err != nil {
			return err
		}
		parts := make([]Data, n)
		for i := range parts {
			parts[i] = Data{Virtual: int64(1+(me+i)%3) << 20}
		}
		if _, err := c.Alltoall(parts); err != nil {
			return err
		}
		if me == 0 {
			for dst := 1; dst < n; dst++ {
				if err := c.Send(dst, 5, Data{Bytes: []byte("fan"), Virtual: 1 << 18}); err != nil {
					return err
				}
			}
		} else if _, _, err := c.Recv(0, 5); err != nil {
			return err
		}
		_, err := c.AllreduceF64([]float64{float64(me)}, OpSum)
		return err
	}
	equalArrivals(t, arrivals(t, n, 1, false, script), arrivals(t, n, 1, true, script))
}

// TestFailoverArrivalsCallbackMatchesPull is the same equality under
// replication with the heartbeat plane live: rank 0's leader dies
// mid-stream, its backup is promoted and flushes its log.
func TestFailoverArrivalsCallbackMatchesPull(t *testing.T) {
	script := func(w *world, c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 6; i++ {
				if err := c.Send(1, 10+i, Data{Bytes: []byte{byte(i)}}); err != nil {
					return err
				}
				w.s.Sleep(300 * time.Millisecond)
				if i == 2 && c.Replica() == 0 {
					w.net.FailHost(w.slots[0].HostID)
					return nil // this replica is dead now
				}
			}
			w.s.Sleep(10 * time.Second) // linger so the backup can take over
			return nil
		}
		for i := 0; i < 6; i++ {
			if _, _, err := c.RecvTimeout(0, 10+i, 30*time.Second); err != nil {
				return fmt.Errorf("replica %d recv %d: %w", c.Replica(), i, err)
			}
		}
		return nil
	}
	callback, pull := arrivals(t, 2, 2, false, script), arrivals(t, 2, 2, true, script)
	callback, pull = callback[2:], pull[2:] // rank 0 only sends
	equalArrivals(t, callback, pull)
	if !strings.Contains(strings.Join(callback[0], "\n"), "src=0.1") {
		t.Errorf("no frame from the promoted backup reached rank 1:\n  %s", strings.Join(callback[0], "\n  "))
	}
}

// TestCommCrashRestoreCloseHygiene: with no pump parked on them, inbound
// endpoints still behave across a crash and a Close. Nothing reaches
// deliver while the host is down; the surviving endpoint serves again
// after the reboot; a frame landing on a closed Comm falls on the closed
// inbox's floor; and the closes (each one a FIN on the wire) are exactly
// those the pump actors made — on the peer's FIN, never on Comm.Close.
func TestCommCrashRestoreCloseHygiene(t *testing.T) {
	scenario := func(pull bool) (arrived, closes []string) {
		w := newWorld(t, 2, 1, Algorithms{})
		w.wrap = func(n transport.Network) transport.Network {
			n = nettest.LogCloses(n, w.s.Elapsed, &closes)
			if pull {
				n = nettest.PullOnly(n)
			}
			return n
		}
		w.joined = func(c *Comm) {
			if c.Rank() == 1 {
				c.inbox = arrivalLog{c.inbox, w.s, &arrived}
			}
		}
		receiver := w.slots[1].HostID
		var closedComm *Comm
		w.run(t, func(c *Comm) error {
			if c.Rank() == 1 {
				// Tags 1 and 3 arrive; 2 was in flight at the crash.
				for _, tag := range []int{1, 3} {
					if _, _, err := c.Recv(0, tag); err != nil {
						return err
					}
				}
				closedComm = c
				return nil // Close, with rank 0 still sending
			}
			step := func(tag int) {
				c.Send(1, tag, Data{Virtual: 1 << 10})
				w.s.Sleep(time.Second)
			}
			step(1)
			c.Send(1, 2, Data{Virtual: 1 << 10})
			w.net.FailHost(receiver) // frame 2 is in flight
			w.s.Sleep(time.Second)
			w.net.RestoreHost(receiver)
			step(3)
			step(4) // lands on a closed Comm
			return nil
		})
		if _, _, err := closedComm.RecvTimeout(AnySource, AnyTag, 0); err != ErrClosed || closedComm.inbox.Len() != 0 {
			t.Errorf("pull=%v: a closed Comm still receives (%v, %d queued)", pull, err, closedComm.inbox.Len())
		}
		return arrived, closes
	}
	arrived, closes := scenario(false)
	pullArrived, pullCloses := scenario(true)
	// Offered to the inbox: 1, 3, and 4 (after Close: dropped there).
	// Frame 2 never got as far as deliver.
	var tags []string
	for _, a := range arrived {
		tags = append(tags, a[strings.Index(a, "tag="):])
	}
	if want := []string{"tag=1 seq=1", "tag=3 seq=3", "tag=4 seq=4"}; !slices.Equal(tags, want) {
		t.Errorf("deliver saw %q, want %q", tags, want)
	}
	if !slices.Equal(arrived, pullArrived) {
		t.Errorf("arrivals diverged\ncallback: %q\npull:     %q", arrived, pullArrived)
	}
	// Rank 0 closes its outbound conn in Comm.Close; rank 1's inbound
	// endpoint closes when that FIN arrives, one way later.
	if len(closes) != 2 || !slices.Equal(closes, pullCloses) {
		t.Errorf("closes diverged or unexpected\ncallback: %q\npull:     %q", closes, pullCloses)
	}
}
