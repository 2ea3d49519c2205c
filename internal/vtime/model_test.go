package vtime

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The event-queue reference model: a sorted slice of pending events by
// (at, seq). checkEventQueue drives a real Scheduler and the model with
// the same operations — Schedule, ScheduleArg (some callbacks schedule a
// child), After, AfterArg, Stop through any handle ever issued, actors
// that Sleep, actors in a timed PopTimeout that a Push may answer — and
// forces slab compaction at every chance: after each operation, inside
// every callback, and in every actor that wakes. Every run of the clock
// must fire the model's events, at the model's times, in the model's
// order; every Stop must report what the model says; and after every
// compaction each heap entry's heapIdx must name its position and the
// heap must be ordered.

// modelEvent is one pending event of the model. A child ≥ 0 is the
// delay of the event its callback schedules.
type modelEvent struct {
	at    time.Duration
	seq   uint64
	name  int
	child time.Duration
}

// firing is one event as it fired: its name and the clock.
type firing struct {
	at   time.Duration
	name int
}

type queueModel struct {
	now     time.Duration
	seq     uint64
	pending []modelEvent
}

func (m *queueModel) add(d time.Duration, name int, child time.Duration) {
	m.seq++
	m.pending = append(m.pending, modelEvent{at: m.now + d, seq: m.seq, name: name, child: child})
}

// remove cancels a pending event and reports whether it was pending.
func (m *queueModel) remove(name int) bool {
	i := slices.IndexFunc(m.pending, func(e modelEvent) bool { return e.name == name })
	if i < 0 {
		return false
	}
	m.pending = slices.Delete(m.pending, i, i+1)
	return true
}

// runUntil fires every event due by limit in (at, seq) order.
func (m *queueModel) runUntil(limit time.Duration) []firing {
	var out []firing
	for {
		slices.SortFunc(m.pending, func(a, b modelEvent) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return int(a.seq) - int(b.seq)
		})
		if len(m.pending) == 0 || m.pending[0].at > limit {
			m.now = limit
			return out
		}
		e := m.pending[0]
		m.pending = m.pending[1:]
		m.now = e.at
		out = append(out, firing{e.at, e.name})
		if e.child >= 0 {
			m.add(e.child, childName(e.name), -1)
		}
	}
}

func childName(name int) int { return name + 1_000_000 }

// compactNow runs the retention rule's compaction regardless of the
// thresholds and checks the heap after it. It runs inside callbacks and
// actors too, so it reports by panicking: the panic surfaces from the
// driver's RunFor.
func compactNow(s *Scheduler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
	for i, id := range s.heap {
		if int(id) >= len(s.slab) {
			panic(fmt.Sprintf("heap[%d] names slot %d past the slab's %d", i, id, len(s.slab)))
		}
		if got := s.slab[id].heapIdx; int(got) != i {
			panic(fmt.Sprintf("slot %d at heap[%d] carries heapIdx %d", id, i, got))
		}
		if i > 0 && s.heapLess(id, s.heap[(i-1)/4]) {
			panic(fmt.Sprintf("heap[%d] sorts before its parent", i))
		}
	}
}

// handle is one cancel handle the run issued: After's or AfterArg's.
type handle struct {
	name int
	stop func() bool
}

func checkEventQueue(t *testing.T, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	delay := func() time.Duration { return time.Duration(next()%24) * time.Millisecond } // many ties

	s := New()
	defer s.Shutdown()
	q := NewQueue[int](s)
	m := &queueModel{}
	var (
		log      []firing
		handles  []handle
		spawned  []modelEvent // actors spawned since the last run: their event is made when they run
		armed    []int        // waiters parked in PopTimeout, longest-waiting first
		answered = map[int]bool{}
		name     int
	)
	fire := func(name int) {
		log = append(log, firing{s.Elapsed(), name})
		compactNow(s)
	}
	callback := func(name int, child time.Duration) func() {
		return func() {
			fire(name)
			if child >= 0 {
				s.Schedule(child, func() { fire(childName(name)) })
			}
		}
	}
	argFire := func(a any) { fire(a.(int)) }

	for step := 0; len(ops) > 0; step++ {
		name++
		switch op := next() % 10; op {
		case 0: // Schedule, with a child half the time
			d, child := delay(), time.Duration(-1)
			if next()%2 == 0 {
				child = delay()
			}
			s.Schedule(d, callback(name, child))
			m.add(d, name, child)
		case 1: // ScheduleArg
			d := delay()
			s.ScheduleArg(d, argFire, name)
			m.add(d, name, -1)
		case 2: // After
			d := delay()
			tm := s.After(d, callback(name, -1))
			handles = append(handles, handle{name, tm.Stop})
			m.add(d, name, -1)
		case 3: // AfterArg
			d := delay()
			tm := s.AfterArg(d, argFire, name)
			handles = append(handles, handle{name, tm.Stop})
			m.add(d, name, -1)
		case 4: // Stop through any handle ever issued
			if len(handles) > 0 {
				h := handles[next()%len(handles)]
				if got, want := h.stop(), m.remove(h.name); got != want {
					t.Fatalf("step %d: Stop(%d) = %v, model %v", step, h.name, got, want)
				}
			}
		case 5: // an actor sleeps
			d, n := delay(), name
			s.Go("sleeper", func() {
				s.Sleep(d)
				fire(n)
			})
			spawned = append(spawned, modelEvent{at: d, name: n, child: -1})
		case 6: // an actor waits in PopTimeout
			d, n := delay()+time.Millisecond, name
			s.Go("waiter", func() {
				_, err := q.PopTimeout(d)
				switch {
				case errors.Is(err, ErrTimeout):
					fire(n)
				case err == nil:
					answered[n] = true
					compactNow(s)
				default:
					panic(fmt.Sprintf("waiter %d: %v", n, err))
				}
			})
			spawned = append(spawned, modelEvent{at: d, name: -n, child: -1})
		case 7: // a Push answers the longest-waiting armed waiter
			if len(armed) > 0 {
				n := armed[0]
				armed = armed[1:]
				if !m.remove(n) {
					t.Fatalf("step %d: armed waiter %d has no timer in the model", step, n)
				}
				q.Push(n)
				answered[n] = false // its actor records the answer when it runs
			}
		default: // run the clock
			until := m.now + delay()*2
			for _, e := range spawned {
				n := e.name
				if n < 0 {
					n = -n
					armed = append(armed, n)
				}
				m.add(e.at, n, -1)
			}
			spawned = spawned[:0]
			want := m.runUntil(until)
			from := len(log)
			s.RunFor(until - s.Elapsed())
			if got := log[from:]; !slices.Equal(got, want) {
				t.Fatalf("step %d: fired %v, model %v", step, got, want)
			}
			armed = slices.DeleteFunc(armed, func(n int) bool {
				return !slices.ContainsFunc(m.pending, func(e modelEvent) bool { return e.name == n })
			})
			for n, got := range answered {
				if !got {
					t.Fatalf("step %d: waiter %d was pushed to but did not receive", step, n)
				}
			}
		}
		compactNow(s)
	}
	// Every handle still answers for its event, then the rest drains.
	for _, h := range handles {
		if got, want := h.stop(), m.remove(h.name); got != want {
			t.Fatalf("final Stop(%d) = %v, model %v", h.name, got, want)
		}
	}
	for _, e := range spawned {
		m.add(e.at, max(e.name, -e.name), -1)
	}
	want := m.runUntil(m.now + time.Hour)
	from := len(log)
	s.RunFor(m.now - s.Elapsed())
	if got := log[from:]; !slices.Equal(got, want) {
		t.Fatalf("drain: fired %v, model %v", got, want)
	}
	if n := s.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after the drain", n)
	}
}

// TestEventQueueMatchesModel runs the model on seeded operation
// sequences.
func TestEventQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ops := make([]byte, 1200)
			rand.New(rand.NewSource(seed)).Read(ops)
			checkEventQueue(t, ops)
		})
	}
}

// FuzzEventQueueModel is the model over arbitrary operation bytes.
func FuzzEventQueueModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(checkEventQueue)
}
