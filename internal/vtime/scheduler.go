package vtime

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is the panic value used to unwind parked actors when the
// scheduler shuts down. Actor functions are unwound transparently; user
// code never observes it unless it installs its own recover.
var ErrStopped = errors.New("vtime: scheduler stopped")

// Runtime is the minimal execution environment the middleware is written
// against. The Scheduler implements it in virtual time; Real implements it
// on the wall clock, so the very same daemon code runs in both worlds.
type Runtime interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep pauses the calling actor (or goroutine) for d.
	Sleep(d time.Duration)
	// Go starts fn as a new actor (or goroutine). The name is used in
	// diagnostics only.
	Go(name string, fn func())
	// Schedule runs fn once at now+d without dedicating a goroutine to
	// the wait. fn runs outside any actor context and must not block;
	// daemons use it for timer chains (spawn the real work with Go) so
	// an idle daemon holds no parked goroutine per periodic loop.
	Schedule(d time.Duration, fn func())
	// NewMailbox creates a runtime-portable FIFO for blocking hand-offs.
	NewMailbox() Mailbox
}

// actor is the scheduler-side handle for one registered coroutine.
type actor struct {
	name   string
	resume func() (struct{}, bool) // iter.Pull next: runs the actor until it yields or exits
	stop   func()                  // iter.Pull stop: makes the pending yield return false
	yield  func(struct{}) bool     // switches back to whoever called resume; set when the body starts
	parked bool                    // blocked in park, waiting for a wake
	idx    int                     // position in s.all, for O(1) removal
}

// Scheduler is a sequential discrete-event executor.
//
// Actors are coroutines (iter.Pull) resumed one at a time by the driver:
// the goroutine that called Wait, RunFor or RunUntil. A parking actor
// runs the dispatch loop itself; pure timer events (Sleep expiries,
// queue timeouts) fire inline under one lock acquisition, and when the
// next runnable actor is the parking actor itself it simply carries on.
// A Sleep tick therefore costs one mutex cycle and zero allocations.
// Only when control genuinely moves to another actor does the parker
// yield to the driver, which resumes that actor: two direct goroutine
// switches, no run queue, no thread wake.
//
// The zero value is not usable; call New.
type Scheduler struct {
	mu       sync.Mutex
	idleCond *sync.Cond // broadcast when the driver returns

	epoch    time.Time     // virtual time zero
	now      time.Duration // virtual time since epoch; written under mu
	nowNanos atomic.Int64  // lock-free mirror of now for Now/Elapsed

	// Event storage: a slab of event slots addressed by the 4-ary heap,
	// recycled through a free list so steady-state scheduling does not
	// allocate. See eventq.go.
	slab []event
	free []int32
	heap []int32
	seq  uint64

	runq    []*actor // runnable, not yet executing; ring via rqHead
	rqHead  int
	cur     *actor   // the single executing actor, nil if none
	on      *actor   // the actor whose coroutine the driver has resumed
	handoff *actor   // next runner chosen by a parking actor, for the driver
	all     []*actor // every live actor (parked ones carry a.parked)

	spawned int  // actors ever registered by Go
	driving bool // a goroutine is inside Wait's dispatch loop
	stopped bool

	limited bool          // when set, events beyond limit do not fire
	limit   time.Duration // virtual-time fence used by RunFor
}

// New returns a scheduler whose virtual clock starts at a fixed epoch
// (2008-04-14 00:00:00 UTC, the week of IPDPS 2008) so that timestamps in
// traces are stable across runs.
func New() *Scheduler {
	a := arenaPool.Get().(*arena)
	s := &Scheduler{
		epoch: time.Date(2008, 4, 14, 0, 0, 0, 0, time.UTC),
		slab:  a.slab[:0],
		free:  a.free[:0],
		heap:  a.heap[:0],
	}
	*a = arena{}
	arenaPool.Put(a)
	s.idleCond = sync.NewCond(&s.mu)
	return s
}

// Now returns the current virtual time. It is lock-free: daemon code
// timestamps constantly, and a reader needs only a consistent snapshot
// of the clock, never the event queue.
func (s *Scheduler) Now() time.Time {
	return s.epoch.Add(time.Duration(s.nowNanos.Load()))
}

// Elapsed returns the virtual time elapsed since the epoch. Lock-free.
func (s *Scheduler) Elapsed() time.Duration {
	return time.Duration(s.nowNanos.Load())
}

// setNowLocked advances the clock and its lock-free mirror.
func (s *Scheduler) setNowLocked(t time.Duration) {
	s.now = t
	s.nowNanos.Store(int64(t))
}

// Go registers fn as a new actor and makes it runnable. It may be called
// from outside the scheduler (before Wait, or while another goroutine
// drives) or from inside a running actor.
func (s *Scheduler) Go(name string, fn func()) {
	a := &actor{name: name}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	a.resume, a.stop = iter.Pull(func(yield func(struct{}) bool) {
		a.yield = yield
		defer func() {
			r := recover()
			s.actorExit(a)
			if r != nil && r != ErrStopped {
				// Re-raised by iter.Pull on the goroutine driving Wait, so
				// the actor's own stack has to travel in the message.
				panic(fmt.Sprintf("vtime: actor %q panicked: %v\n%s", a.name, r, debug.Stack()))
			}
		}()
		fn()
	})
	a.idx = len(s.all)
	s.all = append(s.all, a)
	s.runq = append(s.runq, a)
	s.spawned++
}

// removeActorLocked drops a from the live set (swap-remove). Shutdown
// empties the set wholesale, so a may already be gone.
func (s *Scheduler) removeActorLocked(a *actor) {
	last := len(s.all) - 1
	if a.idx <= last && s.all[a.idx] == a {
		moved := s.all[last]
		s.all[a.idx] = moved
		moved.idx = a.idx
		s.all[last] = nil
		s.all = s.all[:last]
	}
}

// actorExit releases the token when an actor's function returns or
// unwinds. The coroutine then ends and control is back in the driver (or
// in Shutdown), which picks the next runner.
func (s *Scheduler) actorExit(a *actor) {
	s.mu.Lock()
	s.removeActorLocked(a)
	if s.cur == a { // not so for a parked actor unwound by Shutdown
		s.cur = nil
	}
	s.mu.Unlock()
}

// Sleep parks the calling actor for d of virtual time. d <= 0 yields the
// token (other runnable actors execute first) without advancing the clock.
func (s *Scheduler) Sleep(d time.Duration) {
	s.mu.Lock()
	a := s.cur
	if a == nil {
		s.mu.Unlock()
		panic("vtime: Sleep called from a non-actor goroutine")
	}
	if d < 0 {
		d = 0
	}
	id := s.newEventLocked(d)
	ev := &s.slab[id]
	ev.kind = evWake
	ev.actor = a
	s.heapPush(id)
	s.parkLocked(a)
	s.mu.Unlock()
}

// Yield lets other runnable actors execute before the caller continues.
func (s *Scheduler) Yield() { s.Sleep(0) }

// After schedules fn to run at now+d as an event callback. fn runs outside
// any actor context and must not block. The returned Timer can cancel it.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d < 0 {
		d = 0
	}
	id := s.scheduleFuncLocked(d, fn)
	return &Timer{s: s, id: id, gen: s.slab[id].gen}
}

// Schedule is After without the cancel handle: the allocation-free form
// used on per-message paths (the simulator schedules one delivery event
// per message in flight and never cancels them).
func (s *Scheduler) Schedule(d time.Duration, fn func()) {
	s.mu.Lock()
	if d < 0 {
		d = 0
	}
	s.scheduleFuncLocked(d, fn)
	s.mu.Unlock()
}

// ScheduleArg schedules fn(arg) at now+d. Unlike Schedule with a
// capturing closure, a package-level fn plus a pointer-typed arg costs
// no allocation at all — this is the form the simulator's per-message
// delivery events use. fn runs outside any actor context, with the
// scheduler lock released, and must not block.
func (s *Scheduler) ScheduleArg(d time.Duration, fn func(any), arg any) {
	s.mu.Lock()
	if d < 0 {
		d = 0
	}
	id := s.newEventLocked(d)
	ev := &s.slab[id]
	ev.kind = evFuncArg
	ev.fnArg = fn
	ev.arg = arg
	s.heapPush(id)
	s.mu.Unlock()
}

func (s *Scheduler) scheduleFuncLocked(d time.Duration, fn func()) int32 {
	id := s.newEventLocked(d)
	ev := &s.slab[id]
	ev.kind = evFunc
	ev.fn = fn
	s.heapPush(id)
	return id
}

// Timer is a cancelable scheduled callback.
type Timer struct {
	s   *Scheduler
	id  int32
	gen uint32
}

// Stop cancels the timer. It reports whether the callback had not yet run.
func (t *Timer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.cancelLocked(t.id, t.gen)
}

// parkLocked blocks the current actor until some event or other actor
// wakes it. Caller holds s.mu; the lock is held again when parkLocked
// returns. The parking actor runs the dispatch loop itself: when that
// selects the parking actor as the next runner it resumes inline, no
// switch at all; otherwise it leaves the selected actor (if any) in
// s.handoff and yields to the driver. Panics with ErrStopped on shutdown.
func (s *Scheduler) parkLocked(a *actor) {
	if s.stopped {
		s.mu.Unlock()
		panic(ErrStopped)
	}
	a.parked = true
	s.cur = nil
	next := s.dispatchLocked()
	if next == a {
		return // resumed inline: cur == a
	}
	s.handoff = next
	stopped := s.stopped // Shutdown ran in an event callback on this very coroutine
	s.mu.Unlock()
	if stopped || !a.yield(struct{}{}) {
		panic(ErrStopped)
	}
	s.mu.Lock()
}

// WakeLocked makes a parked actor runnable. It is exported for use by
// scheduler-integrated primitives in this package; callers must hold no
// scheduler-visible locks of their own.
func (s *Scheduler) WakeLocked(a *actor) {
	if a.parked {
		a.parked = false
		s.runq = append(s.runq, a)
	}
}

// popRunqLocked removes and returns the head of the run queue.
func (s *Scheduler) popRunqLocked() *actor {
	a := s.runq[s.rqHead]
	s.runq[s.rqHead] = nil
	s.rqHead++
	if s.rqHead == len(s.runq) {
		s.runq = s.runq[:0]
		s.rqHead = 0
	}
	return a
}

// dispatchLocked selects the next runnable actor, advancing the clock by
// firing events until one becomes runnable. If neither is possible the
// scheduler is idle and nil is returned. Caller holds s.mu and resumes
// the returned actor (s.cur): a parking actor by carrying on when it is
// itself, the driver through the actor's coroutine otherwise.
//
// Internal events (actor wakes, queue-waiter expiries) run to completion
// right here, under the lock — they only mutate scheduler state, so a
// run of pure timer events costs one lock acquisition total. User
// callbacks (After/Schedule) run with the lock released so they can
// re-enter public APIs; no actor executes meanwhile (s.cur is nil and
// only the dispatching goroutine runs), which keeps callbacks serialized
// with all actor code.
func (s *Scheduler) dispatchLocked() *actor {
	for {
		if s.rqHead < len(s.runq) {
			s.cur = s.popRunqLocked()
			return s.cur
		}
		if s.stopped || len(s.heap) == 0 ||
			(s.limited && s.slab[s.heap[0]].at > s.limit) {
			return nil
		}
		id := s.heapPop()
		ev := &s.slab[id]
		if ev.at > s.now {
			s.setNowLocked(ev.at)
		}
		switch ev.kind {
		case evWake:
			a := ev.actor
			s.freeEventLocked(id)
			s.WakeLocked(a)
		case evAbandon:
			w := ev.w
			s.freeEventLocked(id)
			if !w.got && !w.gone {
				w.gone = true
				s.WakeLocked(w.a)
			}
		case evFuncArg:
			fn, arg := ev.fnArg, ev.arg
			s.freeEventLocked(id)
			s.mu.Unlock()
			fn(arg)
			s.mu.Lock()
		default:
			// Run the callback without the lock so it can use public APIs
			// (Queue.Push, After, Schedule).
			fn := ev.fn
			s.freeEventLocked(id)
			s.mu.Unlock()
			fn()
			s.mu.Lock()
		}
	}
}

// Wait drives the scheduler from the calling (external, non-actor)
// goroutine until it is idle: no runnable actor and no pending event.
// Parked actors may remain; use Shutdown to unwind them. A panic in an
// actor surfaces here, carrying the actor's name and stack, and may be
// recovered: the scheduler stays usable. While one goroutine drives, a
// second caller only blocks until that driver returns.
func (s *Scheduler) Wait() {
	s.mu.Lock()
	if s.driving {
		for s.driving {
			s.idleCond.Wait()
		}
		s.mu.Unlock()
		return
	}
	s.driving = true
	defer func() { // s.mu is not held here, on return and on panic alike
		s.mu.Lock()
		s.driving, s.on = false, nil
		s.idleCond.Broadcast()
		s.mu.Unlock()
	}()
	for {
		a := s.handoff
		s.handoff = nil
		if a == nil {
			if a = s.dispatchLocked(); a == nil {
				s.mu.Unlock()
				return
			}
		}
		s.on = a
		s.mu.Unlock()
		a.resume() // until a parks behind another actor, goes idle or exits
		s.mu.Lock()
		s.on = nil
	}
}

// RunFor drives the simulation for d of virtual time (or until it runs
// out of events first) and returns the amount of virtual time advanced.
// Events scheduled beyond the fence stay pending for the next RunFor or
// Wait. It must be called from outside the scheduler.
func (s *Scheduler) RunFor(d time.Duration) time.Duration {
	s.mu.Lock()
	start := s.now
	s.limit = s.now + d
	s.limited = true
	s.mu.Unlock()

	s.Wait()

	s.mu.Lock()
	s.limited = false
	if s.now < start+d {
		// Ran out of events early: jump the clock to the fence so that
		// consecutive RunFor calls tile the timeline predictably.
		s.setNowLocked(start + d)
	}
	advanced := s.now - start
	s.mu.Unlock()
	return advanced
}

// NextEventAt reports the virtual timestamp of the earliest pending
// work: the head of the event heap, or the current clock when an actor
// is runnable but not yet executing. ok is false when the scheduler has
// nothing left to do. It is meant to be called from outside the
// scheduler while it is idle — the Domain uses it between windows to
// size the next one.
func (s *Scheduler) NextEventAt() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rqHead < len(s.runq) {
		return s.now, true
	}
	if len(s.heap) > 0 {
		return s.slab[s.heap[0]].at, true
	}
	return 0, false
}

// RunUntil drives the simulation until the virtual clock reaches the
// absolute elapsed time t: every event stamped at or before t fires, and
// the clock lands exactly on t even if the event queue drains early.
// This is RunFor with an absolute fence; Domain shard workers use it to
// advance all shards to a common horizon. Must be called from outside
// the scheduler.
func (s *Scheduler) RunUntil(t time.Duration) {
	s.mu.Lock()
	if t < s.now {
		t = s.now
	}
	s.limit = t
	s.limited = true
	s.mu.Unlock()

	s.Wait()

	s.mu.Lock()
	s.limited = false
	if s.now < t && !s.stopped {
		s.setNowLocked(t)
	}
	s.mu.Unlock()
}

// AdvanceTo jumps the clock forward to t without firing anything. The
// caller must know that no pending event is stamped before t; the Domain
// uses it to line idle shards up on a barrier time.
func (s *Scheduler) AdvanceTo(t time.Duration) {
	s.mu.Lock()
	if t > s.now {
		s.setNowLocked(t)
	}
	s.mu.Unlock()
}

// Shutdown stops the scheduler: pending events are dropped and every
// parked or queued actor is unwound with ErrStopped before Shutdown
// returns, so no actor goroutine outlives it. Idempotent. Call it once
// the driver has returned, or from inside an actor or callback; never
// from another goroutine while a driver runs.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	for _, id := range s.heap {
		s.freeEventLocked(id)
	}
	// Donate the (fully freed and cleared) event storage for the next
	// scheduler; late API calls on this one see empty slices and still
	// behave (events on a stopped scheduler never fire anyway).
	arenaPool.Put(&arena{slab: s.slab, free: s.free, heap: s.heap[:0]})
	s.slab = nil
	s.free = nil
	s.heap = nil
	// Unwind every other actor, started or not: all of them are suspended
	// in yield (or before their first instruction), so stop runs each one's
	// deferred calls to completion before returning. The caller's own
	// coroutine, if Shutdown was called from inside one, unwinds at its
	// next park.
	victims, on := s.all, s.on
	s.all = nil
	if on != nil {
		on.idx = 0
		s.all = []*actor{on}
	}
	for _, a := range victims {
		a.parked = false
	}
	s.runq, s.rqHead, s.handoff = nil, 0, nil
	s.mu.Unlock()
	for _, a := range victims {
		if a != on {
			a.stop()
		}
	}
}

// Actors returns the number of live actors (for tests and diagnostics).
func (s *Scheduler) Actors() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.all)
}

// Spawned returns the number of actors Go has registered since the
// scheduler was created, finished ones included: what a phase cost in
// coroutines is the difference across it.
func (s *Scheduler) Spawned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawned
}

// PendingEvents returns the number of scheduled events (a canceled one
// leaves the heap at once).
func (s *Scheduler) PendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// curActorLocked returns the executing actor, panicking when called from
// outside an actor. Caller holds s.mu.
func (s *Scheduler) curActorLocked(op string) *actor {
	if s.cur == nil {
		s.mu.Unlock()
		panic("vtime: " + op + " called from a non-actor goroutine")
	}
	return s.cur
}
