package vtime

import (
	"sync"
	"time"
)

// Event kinds. Wake and abandon events are internal: the dispatch loop
// runs them to completion under the scheduler lock — no goroutine
// hand-off, no unlock round-trip, no closure. Func events carry user
// callbacks (After/Schedule) and run with the lock released, so the
// callback can re-enter public scheduler APIs.
const (
	evFunc    uint8 = iota
	evFuncArg       // like evFunc, closure-free: fnArg(arg)
	evWake          // resume a Sleep-parked actor
	evAbandon       // expire a queue waiter (Queue.PopTimeout)
)

// event is one slot of the scheduler's event slab. Events are addressed
// by slab index; gen disambiguates slot reuse so Timer handles stay O(1)
// without keeping freed slots alive. All fields are guarded by s.mu.
type event struct {
	at      time.Duration
	seq     uint64 // FIFO tie-break for equal timestamps
	kind    uint8
	gen     uint32
	heapIdx int32       // position in s.heap (cancelLocked removes through it), -1 once out
	actor   *actor      // evWake target
	w       *waiterCore // evAbandon target
	fn      func()      // evFunc callback; runs with s.mu NOT held
	fnArg   func(any)   // evFuncArg callback; runs with s.mu NOT held
	arg     any         // evFuncArg argument
}

// waiterCore is the non-generic half of a queue waiter, shared with the
// scheduler so PopTimeout expiries run as internal events instead of
// allocating a closure per timed receive.
type waiterCore struct {
	a    *actor
	got  bool // item was handed off
	gone bool // abandoned (timeout or close); Push must skip it
}

// arena is the recyclable bulk storage of one scheduler: the event slab
// and its index structures. Sweep harnesses boot one short-lived world
// per experiment point, and each world's slab grows to the point's
// in-flight-event high-water mark — recycling the arrays across points
// (and across the pool's OS workers) turns that into a one-time cost.
// Donation happens in Shutdown, after every slot has been freed and
// cleared, so an adopted arena carries capacity but no references; slot
// generation counters carry over, which only means recycled Timer
// handles from a previous scheduler read as "already fired".
type arena struct {
	slab []event
	free []int32
	heap []int32
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// newEventLocked takes a slot from the slab (reusing a freed one when
// available) and stamps it with the deadline and the next sequence
// number. The caller fills in the kind-specific fields and pushes it.
func (s *Scheduler) newEventLocked(d time.Duration) int32 {
	s.seq++
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slab = append(s.slab, event{})
		id = int32(len(s.slab) - 1)
	}
	ev := &s.slab[id]
	ev.at = s.now + d
	ev.seq = s.seq
	return id
}

// freeEventLocked returns a popped or removed slot to the free list. The generation
// bump invalidates outstanding Timer handles; clearing the references
// lets the closure and targets be collected while the slot is idle.
func (s *Scheduler) freeEventLocked(id int32) {
	ev := &s.slab[id]
	ev.gen++
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.actor = nil
	ev.w = nil
	ev.heapIdx = -1
	s.free = append(s.free, id)
}

// cancelLocked takes an event out of the heap and frees its slot at once
// if the handle is still current, and reports whether it did. A slot's
// generation moves on the moment it leaves the heap (fired, canceled or
// dropped by Shutdown), so a current handle always names a heap entry;
// pop order among the others — (at, seq) — is untouched. Removing here
// rather than flagging matters because most timers are deadlines that
// never fire: one per RPC, canceled when the reply lands.
func (s *Scheduler) cancelLocked(id int32, gen uint32) bool {
	if int(id) >= len(s.slab) || s.slab[id].gen != gen {
		return false // fired, reused, or the slab was donated by Shutdown
	}
	h := s.heap
	i, last := int(s.slab[id].heapIdx), len(h)-1
	moved := h[last]
	s.heap = h[:last]
	if i != last {
		h[i] = moved
		s.siftDown(i)
		if h[i] == moved {
			s.siftUp(i)
		}
	}
	s.freeEventLocked(id)
	return true
}

// The heap is a 4-ary min-heap of slab indices ordered by (at, seq). A
// wider node fans the tree out to a quarter of the depth of a binary
// heap and keeps sibling comparisons inside one cache line of int32s —
// the shape matters because sweeps park hundreds of thousands of
// in-flight deliveries here.

func (s *Scheduler) heapLess(a, b int32) bool {
	ea, eb := &s.slab[a], &s.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (s *Scheduler) heapPush(id int32) {
	s.heap = append(s.heap, id)
	s.siftUp(len(s.heap) - 1)
}

func (s *Scheduler) heapPop() int32 {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	if last > 0 {
		s.siftDown(0)
	}
	s.slab[top].heapIdx = -1
	return top
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	id := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.heapLess(id, h[p]) {
			break
		}
		h[i] = h[p]
		s.slab[h[i]].heapIdx = int32(i)
		i = p
	}
	h[i] = id
	s.slab[id].heapIdx = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	id := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.heapLess(h[j], h[best]) {
				best = j
			}
		}
		if !s.heapLess(h[best], id) {
			break
		}
		h[i] = h[best]
		s.slab[h[i]].heapIdx = int32(i)
		i = best
	}
	h[i] = id
	s.slab[id].heapIdx = int32(i)
}
