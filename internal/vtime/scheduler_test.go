package vtime

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var elapsed time.Duration
	s.Go("sleeper", func() {
		s.Sleep(3 * time.Second)
		elapsed = s.Elapsed()
	})
	s.Wait()
	if elapsed != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", elapsed)
	}
}

func TestSleepOrderingAcrossActors(t *testing.T) {
	s := New()
	var order []string
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{{"c", 30 * time.Millisecond}, {"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}} {
		tc := tc
		s.Go(tc.name, func() {
			s.Sleep(tc.d)
			order = append(order, tc.name)
		})
	}
	s.Wait()
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("wake order = %v, want [a b c]", order)
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Go(fmt.Sprintf("actor%d", i), func() {
			s.Sleep(time.Second)
			order = append(order, i)
		})
	}
	s.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; equal deadlines must fire in schedule order (%v)", i, v, order)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	s := New()
	var order []string
	s.Go("first", func() {
		s.Yield()
		order = append(order, "first-after-yield")
	})
	s.Go("second", func() {
		order = append(order, "second")
	})
	s.Wait()
	if fmt.Sprint(order) != "[second first-after-yield]" {
		t.Fatalf("yield did not hand off: %v", order)
	}
	if s.Elapsed() != 0 {
		t.Fatalf("Yield advanced the clock to %v", s.Elapsed())
	}
}

func TestQueuePushPop(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var got []int
	s.Go("consumer", func() {
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok {
				t.Errorf("queue closed early")
				return
			}
			got = append(got, v)
		}
	})
	s.Go("producer", func() {
		for i := 1; i <= 3; i++ {
			s.Sleep(time.Millisecond)
			q.Push(i * 10)
		}
	})
	s.Wait()
	if fmt.Sprint(got) != "[10 20 30]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	s := New()
	q := NewQueue[string](s)
	var err error
	var waited time.Duration
	s.Go("consumer", func() {
		start := s.Elapsed()
		_, err = q.PopTimeout(50 * time.Millisecond)
		waited = s.Elapsed() - start
	})
	s.Wait()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if waited != 50*time.Millisecond {
		t.Fatalf("waited %v, want exactly 50ms of virtual time", waited)
	}
}

func TestQueuePopTimeoutItemWins(t *testing.T) {
	s := New()
	q := NewQueue[string](s)
	var v string
	var err error
	s.Go("consumer", func() {
		v, err = q.PopTimeout(time.Second)
	})
	s.Go("producer", func() {
		s.Sleep(10 * time.Millisecond)
		q.Push("hello")
	})
	s.Wait()
	if err != nil || v != "hello" {
		t.Fatalf("got (%q, %v), want (hello, nil)", v, err)
	}
	if s.Elapsed() != 10*time.Millisecond {
		t.Fatalf("clock = %v, want 10ms (timeout event must not fire)", s.Elapsed())
	}
}

func TestQueueTimedOutWaiterDoesNotStealItem(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var slow, fast int
	var slowErr error
	s.Go("slow", func() {
		_, slowErr = q.PopTimeout(time.Millisecond)
		_ = slow
	})
	s.Go("fast", func() {
		s.Sleep(5 * time.Millisecond)
		v, ok := q.Pop()
		if ok {
			fast = v
		}
	})
	s.Go("producer", func() {
		s.Sleep(10 * time.Millisecond)
		q.Push(42)
	})
	s.Wait()
	if slowErr != ErrTimeout {
		t.Fatalf("slow err = %v, want timeout", slowErr)
	}
	if fast != 42 {
		t.Fatalf("fast consumer got %d, want 42", fast)
	}
}

func TestQueueClose(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var ok bool
	s.Go("consumer", func() { _, ok = q.Pop() })
	s.Go("closer", func() {
		s.Sleep(time.Millisecond)
		q.Close()
	})
	s.Wait()
	if ok {
		t.Fatal("Pop returned ok=true after Close")
	}
}

func TestQueueCloseKeepsBufferedItems(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	q.Push(1)
	q.Push(2)
	q.Close()
	var got []int
	var closedOK bool
	s.Go("drainer", func() {
		for {
			v, ok := q.Pop()
			if !ok {
				closedOK = true
				return
			}
			got = append(got, v)
		}
	})
	s.Wait()
	if fmt.Sprint(got) != "[1 2]" || !closedOK {
		t.Fatalf("drained %v (closedOK=%v)", got, closedOK)
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	var tm *Timer
	s.Go("main", func() {
		tm = s.After(time.Second, func() { fired = true })
		s.Sleep(500 * time.Millisecond)
		if !tm.Stop() {
			t.Errorf("Stop returned false before expiry")
		}
		s.Sleep(time.Second)
	})
	s.Wait()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestTimerFires(t *testing.T) {
	s := New()
	var firedAt time.Duration
	s.Go("main", func() {
		s.After(time.Second, func() { firedAt = s.Elapsed() })
		s.Sleep(2 * time.Second)
	})
	s.Wait()
	if firedAt != time.Second {
		t.Fatalf("fired at %v, want 1s", firedAt)
	}
}

func TestRunFor(t *testing.T) {
	s := New()
	ticks := 0
	s.Go("ticker", func() {
		for i := 0; i < 1000; i++ {
			s.Sleep(time.Second)
			ticks++
		}
	})
	advanced := s.RunFor(10*time.Second + time.Millisecond)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if advanced < 10*time.Second {
		t.Fatalf("advanced %v, want >= 10s", advanced)
	}
	s.Shutdown()
}

func TestShutdownUnwindsParkedActors(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var cleaned atomic.Int32
	for i := 0; i < 5; i++ {
		s.Go("blocked", func() {
			defer cleaned.Add(1)
			q.Pop() // parks forever
		})
	}
	s.Wait()
	s.Shutdown() // synchronous: every deferred call has run when it returns
	if cleaned.Load() != 5 {
		t.Fatalf("only %d/5 actors unwound after Shutdown", cleaned.Load())
	}
}

func TestNestedGo(t *testing.T) {
	s := New()
	total := 0
	s.Go("parent", func() {
		for i := 0; i < 3; i++ {
			s.Go("child", func() {
				s.Sleep(time.Millisecond)
				total++
			})
		}
		s.Sleep(time.Second)
	})
	s.Wait()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() string {
		s := New()
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			s.Go(fmt.Sprintf("a%d", i), func() {
				for j := 0; j < 5; j++ {
					s.Sleep(time.Duration(i+1) * time.Millisecond)
					log = append(log, fmt.Sprintf("%d.%d", i, j))
				}
			})
		}
		s.Wait()
		return fmt.Sprint(log)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestWaitIdleWithParkedDaemons(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	s.Go("daemon", func() {
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
		}
	})
	s.Go("client", func() {
		q.Push(1)
		s.Sleep(time.Millisecond)
	})
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return with a parked daemon")
	}
	s.Shutdown()
}

func TestElapsedZeroAtStart(t *testing.T) {
	s := New()
	if s.Elapsed() != 0 {
		t.Fatalf("fresh scheduler Elapsed = %v", s.Elapsed())
	}
	if s.PendingEvents() != 0 || s.Actors() != 0 {
		t.Fatal("fresh scheduler not empty")
	}
}

func TestRealRuntimeSmoke(t *testing.T) {
	var r Real
	t0 := r.Now()
	r.Sleep(time.Millisecond)
	if r.Now().Sub(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	done := make(chan struct{})
	r.Go("x", func() { close(done) })
	<-done
}

// TestCancelRemovesFromHeap cancels half of a heap of timers in random
// order: each one leaves the heap and frees its slot at once, the heap
// invariant and every survivor's heapIdx hold after each removal, and
// the survivors fire in (at, seq) order. A handle that outlived its slot
// — the slot is reused by a later timer — must stay a no-op.
func TestCancelRemovesFromHeap(t *testing.T) {
	const n = 500
	s := New()
	defer s.Shutdown()
	rng := rand.New(rand.NewSource(1))
	var fired []int
	timers := make([]*Timer, 2*n)
	at := make([]time.Duration, 2*n)
	for i := range timers {
		i := i
		at[i] = time.Duration(rng.Intn(50)) * time.Millisecond // many ties: seq breaks them
		timers[i] = s.After(at[i], func() { fired = append(fired, i) })
	}
	checkHeap := func() {
		t.Helper()
		for i, id := range s.heap {
			if got := s.slab[id].heapIdx; int(got) != i {
				t.Fatalf("slot %d at heap[%d] carries heapIdx %d", id, i, got)
			}
			if i > 0 && s.heapLess(id, s.heap[(i-1)/4]) {
				t.Fatalf("heap[%d] sorts before its parent", i)
			}
		}
	}
	canceled := make(map[int]bool, n)
	for _, i := range rng.Perm(2 * n)[:n] {
		if !timers[i].Stop() {
			t.Fatalf("Stop(%d) = false on a pending timer", i)
		}
		canceled[i] = true
		checkHeap()
	}
	if got := s.PendingEvents(); got != n {
		t.Fatalf("PendingEvents = %d after canceling %d of %d, want %d", got, n, 2*n, n)
	}
	if free := len(s.free); free != n {
		t.Fatalf("%d slots on the free list, want the %d canceled ones", free, n)
	}
	for i := range canceled {
		if timers[i].Stop() {
			t.Fatalf("second Stop(%d) = true", i)
		}
	}
	// Reuse the freed slots, then poke the stale handles again.
	reused := 0
	for i := 0; i < n; i++ {
		s.After(time.Second, func() { reused++ })
	}
	for i := range canceled {
		if timers[i].Stop() {
			t.Fatalf("stale Stop(%d) = true after its slot was reused", i)
		}
	}
	checkHeap()
	s.Wait()
	if len(fired) != n || reused != n {
		t.Fatalf("%d survivors and %d reused timers fired, want %d each", len(fired), reused, n)
	}
	for k, i := range fired {
		if canceled[i] {
			t.Fatalf("canceled timer %d fired", i)
		}
		if k > 0 {
			p := fired[k-1]
			if at[p] > at[i] || (at[p] == at[i] && p > i) {
				t.Fatalf("timer %d (at %v) fired before timer %d (at %v)", p, at[p], i, at[i])
			}
		}
	}
	if timers[fired[0]].Stop() {
		t.Fatal("Stop = true on a fired timer")
	}
}
