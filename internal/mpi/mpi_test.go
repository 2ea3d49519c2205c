package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// world spins up n logical ranks (each with r replicas) on their own
// simulated hosts and runs fn in every process. It returns per-slot
// errors after all processes finish.
type world struct {
	s     *vtime.Scheduler
	net   *simnet.Net
	slots []Slot
	n, r  int
	// wrap, when set, stands between every process and its host's
	// network view (nettest doubles); joined, when set, sees every Comm
	// right after Join, before its process runs.
	wrap   func(transport.Network) transport.Network
	joined func(c *Comm)
}

func (w *world) node(host string) transport.Network {
	if w.wrap != nil {
		return w.wrap(w.net.Node(host))
	}
	return w.net.Node(host)
}

func newWorld(t *testing.T, n, r int) *world {
	t.Helper()
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	hostSite := make(map[string]string)
	var slots []Slot
	for rank := 0; rank < n; rank++ {
		for rep := 0; rep < r; rep++ {
			g := rank*r + rep
			host := fmt.Sprintf("host%03d", g)
			hostSite[host] = fmt.Sprintf("site%d", g%4)
			slots = append(slots, Slot{
				Rank: rank, Replica: rep, Global: g,
				HostID: host, Addr: fmt.Sprintf("%s:%d", host, 40000+g),
			})
		}
	}
	net := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: time.Millisecond},
		simnet.Config{Seed: 17, NICBps: 1e9})
	return &world{s: s, net: net, slots: slots, n: n, r: r}
}

// TestRunLocalAbortsOnFailedRank: a rank whose port is taken fails its
// Join, and the ranks waiting on it get ErrClosed instead of waiting
// forever.
func TestRunLocalAbortsOnFailedRank(t *testing.T) {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	net := simnet.New(s, &simnet.StaticTopology{HostSite: map[string]string{"hub": "x"}, DefLat: time.Millisecond},
		simnet.Config{Seed: 3, NICBps: 1e9})
	if _, err := net.Node("hub").Listen("hub:47101"); err != nil {
		t.Fatal(err)
	}
	var errs []error
	s.Go("world", func() {
		errs = RunLocal(s, net.Node("hub"), "hub", 47100, 3, func(c *Comm) error {
			_, _, err := c.Recv(1, 0)
			return err
		})
	})
	s.Wait()
	if len(errs) != 3 || errs[1] == nil || errs[0] != ErrClosed || errs[2] != ErrClosed {
		t.Fatalf("errs %v: want rank 1's Join error and ErrClosed for the ranks waiting on it", errs)
	}
}

// run launches fn on every slot and waits for completion. The first
// process to fail, its Join included, aborts the run as
// RunLocal does: every Comm is closed, so a peer parked in a collective
// on the failed one errors out instead of hanging Wait, and the test
// reports the first failure, not the ErrClosed it caused.
func (w *world) run(t *testing.T, fn func(c *Comm) error) {
	t.Helper()
	errs := make([]error, len(w.slots))
	comms := make([]*Comm, len(w.slots))
	first := -1
	finish := func(i int, err error) {
		errs[i] = err
		if err == nil || first >= 0 {
			return
		}
		first = i
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	}
	for i, slot := range w.slots {
		w.s.Go(fmt.Sprintf("proc.g%d", slot.Global), func() {
			c, err := Join(Config{
				Self: slot, Slots: w.slots, N: w.n, R: w.r,
				Net: w.node(slot.HostID), RT: w.s,
			})
			if err != nil {
				finish(i, err)
				return
			}
			comms[i] = c
			if first >= 0 {
				c.Close()
			}
			if w.joined != nil {
				w.joined(c)
			}
			defer c.Close()
			finish(i, fn(c))
		})
	}
	w.s.Wait()
	if first >= 0 {
		t.Fatalf("slot %d (%+v): %v", first, w.slots[first], errs[first])
	}
}

// TestCollectiveSendChecksRank: a collective's partner outside the
// communicator is ErrInvalidRank, as it is for Send, and leaves the
// Comm closable. It was an index panic with the Comm's lock held, and
// the deferred Close then hung the whole world.
func TestCollectiveSendChecksRank(t *testing.T) {
	newWorld(t, 2, 1).run(t, func(c *Comm) error {
		for _, dst := range []int{-1, c.Size()} {
			if err := c.send(dst, -5, Data{}); !errors.Is(err, ErrInvalidRank) {
				return fmt.Errorf("send to %d: %v, want ErrInvalidRank", dst, err)
			}
		}
		return nil
	})
}

func TestSendRecvBasic(t *testing.T) {
	w := newWorld(t, 2, 1)
	w.run(t, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, Data{Bytes: []byte("hello")})
		}
		d, st, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(d.Bytes) != "hello" || st.Source != 0 || st.Tag != 7 {
			return fmt.Errorf("got %q from %d tag %d", d.Bytes, st.Source, st.Tag)
		}
		return nil
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := newWorld(t, 2, 1)
	w.run(t, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, Data{Bytes: []byte("first")}); err != nil {
				return err
			}
			return c.Send(1, 2, Data{Bytes: []byte("second")})
		}
		// Receive tag 2 first even though tag 1 arrived earlier.
		d2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(d2.Bytes) != "second" || string(d1.Bytes) != "first" {
			return fmt.Errorf("mismatch: %q %q", d2.Bytes, d1.Bytes)
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newWorld(t, 3, 1)
	w.run(t, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank()+10, Data{Bytes: []byte{byte(c.Rank())}})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			d, st, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(d.Bytes[0]) != st.Source || st.Tag != st.Source+10 {
				return fmt.Errorf("bad envelope %+v", st)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing source: %v", seen)
		}
		return nil
	})
}

func TestRecvTimeout(t *testing.T) {
	w := newWorld(t, 2, 1)
	w.run(t, func(c *Comm) error {
		if c.Rank() == 1 {
			_, _, err := c.RecvTimeout(0, 5, 100*time.Millisecond)
			if err != ErrTimeout {
				return fmt.Errorf("err = %v, want ErrTimeout", err)
			}
		}
		return nil
	})
}

func TestSendValidation(t *testing.T) {
	w := newWorld(t, 2, 1)
	w.run(t, func(c *Comm) error {
		if err := c.Send(5, 1, Data{}); err == nil {
			return fmt.Errorf("send to rank 5 of 2 accepted")
		}
		if err := c.Send(0, -3, Data{}); err == nil {
			return fmt.Errorf("negative user tag accepted")
		}
		return nil
	})
}

func TestRingPass(t *testing.T) {
	const n = 8
	w := newWorld(t, n, 1)
	w.run(t, func(c *Comm) error {
		token := []byte{0}
		if c.Rank() == 0 {
			if err := c.Send(1, 0, Data{Bytes: token}); err != nil {
				return err
			}
			d, _, err := c.Recv(n-1, 0)
			if err != nil {
				return err
			}
			if int(d.Bytes[0]) != n-1 {
				return fmt.Errorf("token = %d, want %d", d.Bytes[0], n-1)
			}
			return nil
		}
		d, _, err := c.Recv(c.Rank()-1, 0)
		if err != nil {
			return err
		}
		return c.Send((c.Rank()+1)%n, 0, Data{Bytes: []byte{d.Bytes[0] + 1}})
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 7
	w := newWorld(t, n, 1)
	var entered [n]time.Duration
	var exited [n]time.Duration
	w.run(t, func(c *Comm) error {
		// Stagger entries; nobody may exit before the last entry.
		w.s.Sleep(time.Duration(c.Rank()) * 10 * time.Millisecond)
		entered[c.Rank()] = w.s.Elapsed()
		if err := c.Barrier(); err != nil {
			return err
		}
		exited[c.Rank()] = w.s.Elapsed()
		return nil
	})
	lastEntry := entered[0]
	for _, e := range entered {
		if e > lastEntry {
			lastEntry = e
		}
	}
	for r, x := range exited {
		if x < lastEntry {
			t.Fatalf("rank %d exited barrier at %v before last entry %v", r, x, lastEntry)
		}
	}
}

// atEverySize runs check in a fresh world of every size from 1 to 9, so
// the non-power-of-two arms of the binomial trees and of recursive
// doubling run.
func atEverySize(t *testing.T, check func(c *Comm, n int) error) {
	t.Helper()
	for n := 1; n <= 9; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			newWorld(t, n, 1).run(t, func(c *Comm) error { return check(c, n) })
		})
	}
}

// TestBcastBinomial broadcasts from every root in turn.
func TestBcastBinomial(t *testing.T) {
	atEverySize(t, func(c *Comm, n int) error {
		for root := 0; root < n; root++ {
			payload := []byte(fmt.Sprintf("broadcast from %d", root))
			var in Data
			if c.Rank() == root {
				in = Data{Bytes: payload}
			}
			out, err := c.Bcast(root, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(out.Bytes, payload) {
				return fmt.Errorf("root %d: rank %d got %q", root, c.Rank(), out.Bytes)
			}
		}
		return nil
	})
}

// TestReduceBinomial reduces to every root in turn.
func TestReduceBinomial(t *testing.T) {
	atEverySize(t, func(c *Comm, n int) error {
		for root := 0; root < n; root++ {
			got, err := c.ReduceF64(root, []float64{float64(c.Rank()), 1}, OpSum)
			if err != nil {
				return err
			}
			if c.Rank() != root {
				if got != nil {
					return fmt.Errorf("root %d: non-root %d received %v", root, c.Rank(), got)
				}
				continue
			}
			wantSum := float64(n*(n-1)) / 2
			if got[0] != wantSum || got[1] != float64(n) {
				return fmt.Errorf("root %d: reduce = %v, want [%v %v]", root, got, wantSum, n)
			}
		}
		return nil
	})
}

func TestAllreduceRecursiveDoubling(t *testing.T) {
	atEverySize(t, func(c *Comm, n int) error {
		got, err := c.AllreduceF64([]float64{float64(c.Rank() + 1)}, OpSum)
		if err != nil {
			return err
		}
		if want := float64(n*(n+1)) / 2; got[0] != want {
			return fmt.Errorf("rank %d: allreduce = %v, want %v", c.Rank(), got[0], want)
		}
		max, err := c.AllreduceI64([]int64{int64(c.Rank())}, OpMax)
		if err != nil {
			return err
		}
		if max[0] != int64(n-1) {
			return fmt.Errorf("rank %d: max = %v", c.Rank(), max[0])
		}
		return nil
	})
}

func TestAllgatherRing(t *testing.T) {
	atEverySize(t, func(c *Comm, n int) error {
		all, err := c.Allgather(Data{Bytes: []byte{byte(c.Rank() + 100)}})
		if err != nil {
			return err
		}
		for r, d := range all {
			if len(d.Bytes) != 1 || int(d.Bytes[0]) != r+100 {
				return fmt.Errorf("rank %d: allgather[%d] = %v", c.Rank(), r, d.Bytes)
			}
		}
		return nil
	})
}

func TestAlltoallPairwise(t *testing.T) {
	atEverySize(t, func(c *Comm, n int) error {
		parts := make([]Data, n)
		for i := range parts {
			parts[i] = Data{Bytes: []byte{byte(c.Rank()), byte(i)}}
		}
		got, err := c.Alltoall(parts)
		if err != nil {
			return err
		}
		for src, d := range got {
			if int(d.Bytes[0]) != src || int(d.Bytes[1]) != c.Rank() {
				return fmt.Errorf("rank %d: from %d got %v", c.Rank(), src, d.Bytes)
			}
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	const n = 6
	w := newWorld(t, n, 1)
	w.run(t, func(c *Comm) error {
		all, err := c.Gather(0, Data{Bytes: []byte{byte(c.Rank() * 2)}})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r, d := range all {
				if int(d.Bytes[0]) != r*2 {
					return fmt.Errorf("gather[%d] = %v", r, d.Bytes)
				}
			}
		} else if all != nil {
			return fmt.Errorf("non-root gather returned data")
		}
		var parts []Data
		if c.Rank() == 0 {
			for r := 0; r < n; r++ {
				parts = append(parts, Data{Bytes: []byte{byte(r * 3)}})
			}
		}
		mine, err := c.Scatter(0, parts)
		if err != nil {
			return err
		}
		if int(mine.Bytes[0]) != c.Rank()*3 {
			return fmt.Errorf("scatter = %v", mine.Bytes)
		}
		return nil
	})
}

func TestAlltoallvVariableSizes(t *testing.T) {
	const n = 5
	w := newWorld(t, n, 1)
	w.run(t, func(c *Comm) error {
		parts := make([]Data, n)
		for i := range parts {
			// Rank r sends r*i bytes to rank i.
			parts[i] = Data{Bytes: bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()*i)}
		}
		got, err := c.Alltoallv(parts)
		if err != nil {
			return err
		}
		for src, d := range got {
			want := src * c.Rank()
			if len(d.Bytes) != want {
				return fmt.Errorf("rank %d: |from %d| = %d, want %d", c.Rank(), src, len(d.Bytes), want)
			}
		}
		return nil
	})
}

func TestScanPrefixSums(t *testing.T) {
	const n = 6
	w := newWorld(t, n, 1)
	w.run(t, func(c *Comm) error {
		res, err := c.Scan(Data{Bytes: EncodeI64s([]int64{int64(c.Rank() + 1)})}, I64Combiner(OpSum))
		if err != nil {
			return err
		}
		vals, err := DecodeI64s(res.Bytes)
		if err != nil {
			return err
		}
		k := int64(c.Rank() + 1)
		if vals[0] != k*(k+1)/2 {
			return fmt.Errorf("rank %d: scan = %d, want %d", c.Rank(), vals[0], k*(k+1)/2)
		}
		return nil
	})
}

func TestCollectivesBackToBack(t *testing.T) {
	// Tag separation: successive collectives must not cross-talk.
	const n = 4
	w := newWorld(t, n, 1)
	w.run(t, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			got, err := c.AllreduceI64([]int64{int64(i)}, OpSum)
			if err != nil {
				return err
			}
			if got[0] != int64(i*n) {
				return fmt.Errorf("iter %d: %d", i, got[0])
			}
		}
		return nil
	})
}

func TestVirtualPayloadCostsTime(t *testing.T) {
	w := newWorld(t, 2, 1)
	var took time.Duration
	w.run(t, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, Data{Virtual: 10 << 20}) // 10 MB modelled
		}
		start := w.s.Elapsed()
		_, _, err := c.Recv(0, 0)
		took = w.s.Elapsed() - start
		return err
	})
	// 10 MB over 1 Gb/s ≈ 84 ms; with only-latency it would be ~1 ms.
	if took < 50*time.Millisecond {
		t.Fatalf("virtual payload was free: %v", took)
	}
}

func TestReplicatedDeliveryExactlyOnce(t *testing.T) {
	// n=2, r=2: every message from rank 0 must reach rank 1 exactly once
	// even though two replicas of rank 0 execute the same sends.
	w := newWorld(t, 2, 2)
	counts := make(map[int]int)
	w.run(t, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, i, Data{Bytes: []byte{byte(i)}}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 5; i++ {
			d, st, err := c.RecvTimeout(0, i, 5*time.Second)
			if err != nil {
				return fmt.Errorf("replica %d recv %d: %w", c.Replica(), i, err)
			}
			if int(d.Bytes[0]) != i {
				return fmt.Errorf("payload %v for tag %d", d.Bytes, st.Tag)
			}
			if c.Replica() == 0 {
				counts[i]++
			}
		}
		// No sixth message may arrive (duplicates would).
		_, _, err := c.RecvTimeout(0, AnyTag, 2*time.Second)
		if err != ErrTimeout {
			return fmt.Errorf("duplicate delivery detected: %v", err)
		}
		return nil
	})
	for i := 0; i < 5; i++ {
		if counts[i] != 1 {
			t.Fatalf("message %d delivered %d times", i, counts[i])
		}
	}
}

func TestFailoverPromotesBackupAndResends(t *testing.T) {
	// Rank 0 runs two replicas. The leader's host dies mid-stream; the
	// backup must take over and rank 1 must still see every message once.
	w := newWorld(t, 2, 2)
	leaderHost := w.slots[0].HostID // rank 0 replica 0
	var got []int
	w.run(t, func(c *Comm) error {
		switch {
		case c.Rank() == 0:
			for i := 0; i < 6; i++ {
				if err := c.Send(1, 10+i, Data{Bytes: []byte{byte(i)}}); err != nil {
					return err
				}
				w.s.Sleep(300 * time.Millisecond)
				if i == 2 && c.Replica() == 0 {
					w.net.FailHost(leaderHost)
					return nil // this replica is dead now
				}
			}
			// A replicated process must not tear down right after its
			// last send: like MPI_Finalize, it lingers so a backup can
			// still take over and flush its log.
			w.s.Sleep(10 * time.Second)
			return nil
		case c.Replica() == 0: // rank 1 replica 0 collects
			for i := 0; i < 6; i++ {
				d, _, err := c.RecvTimeout(0, 10+i, 30*time.Second)
				if err != nil {
					return fmt.Errorf("recv %d: %w", i, err)
				}
				got = append(got, int(d.Bytes[0]))
			}
			return nil
		default: // rank 1 replica 1 just drains in the background
			for {
				if _, _, err := c.RecvTimeout(0, AnyTag, 20*time.Second); err != nil {
					return nil
				}
			}
		}
	})
	if len(got) != 6 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("sequence broken: %v", got)
		}
	}
}
