package vtime

import (
	"math"
	"sync"
	"time"
)

// event is one slot of the scheduler's event slab. Events are addressed
// by slab index; gen disambiguates slot reuse so Timer handles stay O(1)
// without keeping freed slots alive, and its top bit (pinned) marks an
// event a Timer handle names, which compaction never moves. All fields
// are guarded by s.mu.
//
// The record is 48 bytes, one callback and its argument: a storm (the
// boot's all-pairs ping) grows the slab to tens of thousands of slots
// until compaction gives them back (the retention rule below). A user
// callback (After/Schedule/ScheduleArg) is fn(arg), run with s.mu
// released so it can re-enter public scheduler APIs; a plain func()
// rides in arg behind callFunc. Internal events have a nil
// fn and run to completion under the lock, told apart by arg's type: a
// *actor is a Sleep wake-up, a *waiterCore a queue waiter's expiry
// (Queue.PopTimeout).
type event struct {
	at      time.Duration
	seq     uint64 // FIFO tie-break for equal timestamps
	gen     uint32
	heapIdx int32     // position in s.heap (cancelLocked removes through it), -1 once out
	fn      func(any) // user callback; nil for internal events
	arg     any
}

// pinned is the bit of event.gen that marks an event a Timer handle
// names. Freeing a slot bumps the generation and clears the bit.
const pinned = 1 << 31

// The retention rule. A storm grows an engine free list — the event
// slab and its heap and free arrays here, simnet's delivery carriers —
// to the storm's peak, which steady state never reaches again. A pool
// that backs live in-use records may hold KeepLimit(live) of them;
// holding more, it gives back all but about twice live the moment it
// notices, which is when a record is freed: the rule fires while a
// storm drains, not on some later tick.
const (
	// retainMin records any pool may keep whatever is live (768 KB of
	// event slab, 1 MB of carriers): below it, giving back saves less
	// than the churn costs. A small world's whole boot (a 128-host
	// world's, say) fits, so a sweep of such worlds reuses one arena
	// instead of compacting and regrowing it per point, and the GC is
	// not paced by a heap smaller than the work in flight.
	retainMin = 16384
	// retainFactor is the multiple of the live records a pool may hold.
	retainFactor = 8
)

// KeepLimit is the most records a pool backing live in-use records
// holds under the retention rule.
func KeepLimit(live int) int { return max(retainMin, retainFactor*live) }

// callFunc is the trampoline of func() callbacks. A func value is
// pointer-shaped, so storing one in arg allocates nothing.
func callFunc(arg any) { arg.(func())() }

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
// handles from a previous scheduler read as "already fired". Slab
// capacity a storm gave back is not donated; peak, the largest slab
// the donor had, is: the next world's slab grows straight to it.
type arena struct {
	slab []event
	free []int32
	heap []int32
	peak int
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// newEventLocked takes a slot from the slab (reusing a freed one when
// available) and stamps it with the deadline and the next sequence
// number. The caller fills in fn and arg and pushes it.
func (s *Scheduler) newEventLocked(d time.Duration) int32 {
	s.seq++
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else if n := len(s.spare); n > 0 {
		id = s.spare[n-1]
		s.spare = s.spare[:n-1]
		s.above++
	} else {
		// A slab that gave a storm back grows straight back to that
		// storm's size (its own, or its arena donor's), not through a
		// doubling series: a storm that recurs costs one array.
		if len(s.slab) == cap(s.slab) && s.peak > cap(s.slab) {
			s.slab = append(make([]event, 0, max(2*cap(s.slab), s.peak)), s.slab...)
		}
		// A slot past a compaction's cut starts above every generation
		// the cut dropped, so no stale handle can name its events.
		s.slab = append(s.slab, event{gen: s.genFloor})
		s.peak = max(s.peak, len(s.slab))
		id = int32(len(s.slab) - 1)
		if s.cut == noCut {
			s.shrinkAt = shrinkAt(cap(s.slab))
		} else {
			s.above++
		}
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
	ev.gen = (ev.gen + 1) &^ pinned
	ev.fn = nil
	ev.arg = nil
	ev.heapIdx = -1
	if id >= s.cut { // past a pending cut: reused only when the free list is dry
		s.spare = append(s.spare, id)
		if s.above--; s.above == 0 {
			s.shrinkAt = math.MaxInt // the cut can be made now
		}
		return
	}
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
	if len(s.heap) < s.shrinkAt {
		s.compactLocked()
	}
	return true
}

// pinLocked marks event id as named by a Timer handle and returns the
// generation the handle must carry.
func (s *Scheduler) pinLocked(id int32) uint32 {
	s.slab[id].gen |= pinned
	return s.slab[id].gen
}

// shrinkAt is the live-event count under which a slab of capacity c
// breaks the retention rule, 0 while c is within retainMin.
func shrinkAt(c int) int {
	if c <= retainMin {
		return 0
	}
	return c / retainFactor
}

// noCut is Scheduler.cut while no compaction waits on a pinned event.
const noCut = math.MaxInt32

// compactLocked applies the retention rule once the live events (the
// heap) have fallen under a retainFactor-th of the slab: it moves every
// live event above the live count into a free slot below it, cuts the
// slab after the highest live event, copies the slab and heap arrays
// into arrays of twice what is left (retainMin at least) and rebuilds
// the free list in an array of its own size. A move copies the
// record into the hole, keeping the hole's generation, repoints the heap
// entry and clears the slot it left; (at, seq), and with them pop
// order, do not change. Slots past the cut take their generations with
// them into genFloor.
//
// A pinned event never moves: a Timer handle names its slot. One above
// the live count holds the cut at its slot. Until the last of them
// leaves, the free slots from the live count up are spares (cut, spare,
// above): new events take them only when the free slots below are gone,
// and the next compaction, due when above reaches zero, cuts at the
// live count.
func (s *Scheduler) compactLocked() {
	live := len(s.heap)
	m := live
	for _, id := range s.heap {
		if int(id) >= live && s.slab[id].gen&pinned != 0 {
			m = max(m, int(id)+1)
		}
	}
	holes := make([]int32, 0, live) // the free slots below live: at most live of them
	var spare []int32
	for _, list := range [2][]int32{s.free, s.spare} {
		for _, id := range list {
			switch {
			case int(id) < live:
				holes = append(holes, id)
			case int(id) < m:
				spare = append(spare, id)
			}
		}
	}
	s.above = 0
	for pos, id := range s.heap {
		switch {
		case int(id) < live:
		case s.slab[id].gen&pinned != 0:
			s.above++
		default:
			dst := holes[len(holes)-1]
			holes = holes[:len(holes)-1]
			gen := s.slab[dst].gen
			s.slab[dst] = s.slab[id]
			s.slab[dst].gen = gen
			s.heap[pos] = dst
			src := &s.slab[id]
			*src = event{gen: src.gen, heapIdx: -1}
			if int(id) < m {
				spare = append(spare, id)
			}
		}
	}
	for i := m; i < len(s.slab); i++ {
		s.genFloor = max(s.genFloor, s.slab[i].gen&^pinned)
	}
	keep := max(retainMin, 2*m)
	s.slab = shrink(s.slab[:m], keep)
	s.heap = shrink(s.heap, keep)
	s.free, s.spare = holes, spare
	s.cut, s.shrinkAt = noCut, shrinkAt(cap(s.slab))
	if s.above > 0 {
		s.cut, s.shrinkAt = int32(live), 0
	}
}

// shrink returns a copy of a in an array of capacity keep if a's array
// is larger, else a itself.
func shrink[T any](a []T, keep int) []T {
	if cap(a) <= keep {
		return a
	}
	return append(make([]T, 0, keep), a...)
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
