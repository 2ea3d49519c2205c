package vtime

import (
	"errors"
	"time"
)

// ErrClosed is returned by Queue operations after Close.
var ErrClosed = errors.New("vtime: queue closed")

// ErrTimeout is returned by PopTimeout when the deadline expires first.
var ErrTimeout = errors.New("vtime: timeout")

// qwaiter is one actor blocked in Pop, waiting for a direct hand-off.
// The embedded waiterCore is what the scheduler's abandon events touch;
// waiters are recycled through the queue's free list, so steady-state
// blocking receives do not allocate.
type qwaiter[T any] struct {
	waiterCore
	item T
}

// Queue is an unbounded FIFO connecting actors (and event callbacks) to
// actors. Pop blocks the calling actor in virtual time; Push never blocks.
// Items are handed directly to the longest-waiting consumer, preserving
// FIFO order among both items and consumers.
type Queue[T any] struct {
	s       *Scheduler
	items   []T // ring: live items are items[head:]
	head    int
	waiters []*qwaiter[T] // ring: live waiters are waiters[whead:]
	whead   int
	free    []*qwaiter[T] // recycled waiters
	closed  bool
}

// NewQueue returns an empty queue bound to s.
func NewQueue[T any](s *Scheduler) *Queue[T] {
	return &Queue[T]{s: s}
}

func (q *Queue[T]) getWaiterLocked(a *actor) *qwaiter[T] {
	if n := len(q.free); n > 0 {
		w := q.free[n-1]
		q.free = q.free[:n-1]
		w.a = a
		w.got = false
		w.gone = false
		return w
	}
	return &qwaiter[T]{waiterCore: waiterCore{a: a}}
}

func (q *Queue[T]) putWaiterLocked(w *qwaiter[T]) {
	var zero T
	w.item = zero
	w.a = nil
	q.free = append(q.free, w)
}

// popItemLocked removes and returns the buffered head item.
func (q *Queue[T]) popItemLocked() T {
	x := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return x
}

// Push appends x (or hands it to a waiting consumer). It is safe to call
// from actors and from event callbacks. Push on a closed queue is a no-op.
func (q *Queue[T]) Push(x T) {
	s := q.s
	s.mu.Lock()
	if q.closed {
		s.mu.Unlock()
		return
	}
	for q.whead < len(q.waiters) {
		w := q.waiters[q.whead]
		q.waiters[q.whead] = nil
		q.whead++
		if q.whead == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.whead = 0
		}
		if w.gone {
			// Abandoned by a timeout. Its owner may not have resumed yet
			// and still reads the struct, so only the owner ever recycles
			// a waiter — the ring just drops its reference.
			continue
		}
		w.item = x
		w.got = true
		s.WakeLocked(w.a)
		s.mu.Unlock()
		return
	}
	q.items = append(q.items, x)
	s.mu.Unlock()
}

// Pop removes and returns the head item, blocking the calling actor until
// one is available. The bool is false if the queue was closed.
func (q *Queue[T]) Pop() (T, bool) {
	v, err := q.PopTimeout(-1)
	return v, err == nil
}

// PopTimeout is Pop with a virtual-time deadline. d < 0 means no deadline.
// It returns ErrTimeout if d elapses first and ErrClosed after Close.
func (q *Queue[T]) PopTimeout(d time.Duration) (T, error) {
	var zero T
	s := q.s
	s.mu.Lock()
	if q.head < len(q.items) {
		x := q.popItemLocked()
		s.mu.Unlock()
		return x, nil
	}
	if q.closed {
		s.mu.Unlock()
		return zero, ErrClosed
	}
	if d == 0 {
		s.mu.Unlock()
		return zero, ErrTimeout
	}
	a := s.curActorLocked("Queue.Pop")
	w := q.getWaiterLocked(a)
	q.waiters = append(q.waiters, w)

	var tid int32
	var tgen uint32
	timed := d > 0
	if timed {
		tid = s.newEventLocked(d)
		ev := &s.slab[tid]
		ev.kind = evAbandon
		ev.w = &w.waiterCore
		tgen = ev.gen
		s.heapPush(tid)
	}
	s.parkLocked(a)
	// Re-acquired s.mu here.
	if timed {
		s.cancelLocked(tid, tgen)
	}
	if w.got {
		x := w.item
		q.putWaiterLocked(w) // Push removed it from the waiter ring
		s.mu.Unlock()
		return x, nil
	}
	w.gone = true
	if q.closed {
		// Close emptied the waiter ring and no new pushes can reference
		// w, so ownership is back here: recycle. A timed-out waiter, by
		// contrast, still sits in the ring (a later Push walks past it),
		// so it must leak to the GC rather than be recycled twice.
		q.putWaiterLocked(w)
		s.mu.Unlock()
		return zero, ErrClosed
	}
	s.mu.Unlock()
	return zero, ErrTimeout
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return len(q.items) - q.head
}

// Close wakes all waiting consumers with ErrClosed and drops future
// pushes. Buffered items remain poppable. Idempotent.
func (q *Queue[T]) Close() {
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for i := q.whead; i < len(q.waiters); i++ {
		w := q.waiters[i]
		q.waiters[i] = nil
		if !w.gone && !w.got {
			w.gone = true
			s.WakeLocked(w.a)
		}
		// Never recycle here: a timed-out owner may not have resumed yet.
	}
	q.waiters = q.waiters[:0]
	q.whead = 0
}
