package vtime

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestDispatchOrderPinned pins the resume order of a scripted mix against
// a literal table: FIFO among runnable actors, (at, seq) among events,
// callbacks serialized with actors. The experiment goldens depend on
// exactly this order; a scheduler change that perturbs it fails here in
// milliseconds instead of in a 100 s golden. The table was recorded from
// the channel-token scheduler this package had before actors became
// coroutines.
func TestDispatchOrderPinned(t *testing.T) {
	s := New()
	defer s.Shutdown()
	got := spawnDispatchScript(s)
	s.Wait()
	checkDispatchOrder(t, *got)
}

// spawnDispatchScript sets the scripted mix up on s and returns the
// (elapsed, actor) log it appends to as the caller drives the clock.
func spawnDispatchScript(s *Scheduler) *[]string {
	got := new([]string)
	rec := func(who string) {
		*got = append(*got, fmt.Sprintf("%v %s", s.Elapsed(), who))
	}
	const ms = time.Millisecond

	q := NewQueue[int](s)
	empty := NewQueue[int](s)

	// Three sleepers with one deadline: they must wake in Go order.
	for _, name := range []string{"s1", "s2", "s3"} {
		s.Go(name, func() {
			rec(name + " start")
			s.Sleep(10 * ms)
			rec(name + " woke")
			if name == "s2" {
				s.Sleep(5 * ms)
				rec(name + " woke again")
			}
		})
	}
	// Two consumers on one queue: items go to the longest waiter.
	for _, name := range []string{"c1", "c2"} {
		s.Go(name, func() {
			for {
				v, ok := q.Pop()
				if !ok {
					rec(name + " closed")
					return
				}
				rec(fmt.Sprintf("%s got %d", name, v))
			}
		})
	}
	s.Go("p", func() {
		s.Sleep(3 * ms)
		q.Push(1)
		rec("p pushed 1")
		s.Yield()
		q.Push(2)
		q.Push(3)
		rec("p pushed 2,3")
		s.Sleep(7 * ms) // lands on the sleepers' deadline, scheduled after them
		q.Push(4)
		rec("p pushed 4")
		s.Sleep(10 * ms)
		q.Close()
	})
	s.Go("t", func() {
		_, err := empty.PopTimeout(4 * ms)
		rec(fmt.Sprintf("t %v", err))
	})
	// A callback that spawns an actor, and one that feeds the queue from
	// outside any actor at the sleepers' deadline: scheduled before any
	// actor ran, so it fires ahead of their wakes, and the consumer it
	// readies runs before the next event is looked at.
	s.Schedule(7*ms, func() {
		rec("cb spawn")
		s.Go("late", func() {
			rec("late start")
			s.Sleep(3 * ms)
			rec("late woke")
		})
	})
	s.Schedule(10*ms, func() {
		rec("cb push")
		q.Push(5)
	})
	return got
}

// checkDispatchOrder compares a run of the scripted mix against the
// pinned table.
func checkDispatchOrder(t *testing.T, got []string) {
	t.Helper()
	want := []string{
		"0s s1 start",
		"0s s2 start",
		"0s s3 start",
		"3ms p pushed 1",
		"3ms c1 got 1",
		"3ms p pushed 2,3",
		"3ms c2 got 2",
		"3ms c1 got 3",
		"4ms t vtime: timeout",
		"7ms cb spawn",
		"7ms late start",
		"10ms cb push",
		"10ms c2 got 5",
		"10ms s1 woke",
		"10ms s2 woke",
		"10ms s3 woke",
		"10ms p pushed 4",
		"10ms c1 got 4",
		"10ms late woke",
		"15ms s2 woke again",
		"20ms c2 closed",
		"20ms c1 closed",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("resume order changed:\n got:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
