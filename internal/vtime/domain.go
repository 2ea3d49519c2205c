package vtime

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Domain couples N shard schedulers into one conservatively synchronized
// virtual timeline. Each shard is an ordinary run-to-completion
// Scheduler (pooled slab, 4-ary heap — the whole sequential fast path is
// untouched inside a shard); the Domain advances them in lock-step
// windows:
//
//	W = committed horizon (all shard clocks equal W between windows)
//	H = min(earliest pending event across shards + lookahead,
//	        next global event, caller fence)
//
// A one-shard domain has no cross-shard delivery to be conservative
// about, so the lookahead term drops out: its window runs to the next
// global event or the fence, inline on the driver goroutine.
//
// Every shard runs to H concurrently, then a barrier fires: registered
// drain callbacks (the simulated network's cross-shard merge) run on the
// driver goroutine, global events stamped at or before H fire, and the
// next window begins. The lookahead is the minimum cross-shard delivery
// latency, so anything sent during a window arrives at or after H and
// can be enqueued at the barrier without ever landing in a shard's past
// — the classic null-message-free windowed conservative protocol.
//
// The Domain itself is sequential at the barriers: callbacks and global
// events run with every shard parked, so they may touch any shard's
// state without locks.
type Domain struct {
	shards    []*Scheduler
	lookahead time.Duration

	now time.Duration // committed horizon

	barriers []func() // drain callbacks, run in registration order

	gmu     sync.Mutex // guards globals; ScheduleGlobal may be called from barrier code
	globals globalHeap
	gseq    uint64

	workers []shardWorker
	// nexts caches each shard's pending next-event time (-1 when idle)
	// from the horizon scan in step, so runWindow can tell busy shards
	// from idle ones without re-locking every scheduler.
	nexts []time.Duration
	// pending counts the busy shards still running the current window;
	// the last one to park sends the single completion token on done.
	pending atomic.Int32
	done    chan struct{}
	// spin is each worker's wake-spin budget before it parks on its
	// channel. Zero on a single-proc runtime, where spinning only steals
	// cycles from the goroutine being waited on.
	spin    int
	windows uint64 // number of windows run (diagnostics)
	skipped uint64 // windows resolved without waking any worker
	stopped bool
}

type globalEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// globalHeap is a min-heap on (at, seq): every churn, fault and
// heal-poll event of a world queues here, and polls are scheduled while
// a long pre-scheduled trace is still pending.
type globalHeap []globalEvent

func (h globalHeap) Len() int      { return len(h) }
func (h globalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h globalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *globalHeap) Push(x any) { *h = append(*h, x.(globalEvent)) }
func (h *globalHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = globalEvent{} // a fired closure must not stay reachable from the backing array
	*h = old[:n]
	return ev
}

// Worker wake states (shardWorker.flag). The barrier is sense-free on
// the worker side: the driver arms a worker by swapping the flag to
// armed (publishing the horizon beforehand), and only pays a channel
// send when the worker had already declared itself parked.
const (
	wIdle   = 0 // between windows, spinning or about to park
	wArmed  = 1 // horizon published, run the window
	wParked = 2 // blocked on park, driver must send a token
	wQuit   = 3 // shut down
)

type shardWorker struct {
	s       *Scheduler
	horizon time.Duration // plain write by the driver, released by flag
	flag    atomic.Uint32
	park    chan struct{} // cap 1; wake token when armed while parked
	_       [4]uint64     // keep neighbouring workers off one cache line
}

// arm publishes the horizon and wakes the worker. Steady state (worker
// still spinning from the last window, or multicore) this is one atomic
// swap; the channel send happens only after the worker really parked.
func (w *shardWorker) arm(h time.Duration) {
	w.horizon = h
	if w.flag.Swap(wArmed) == wParked {
		w.park <- struct{}{}
	}
}

// awaitArm blocks until the driver arms the worker, spinning for the
// configured budget first. Reports false on shutdown.
func (w *shardWorker) awaitArm(spin int) bool {
	for spins := 0; ; {
		switch w.flag.Load() {
		case wArmed:
			w.flag.Store(wIdle)
			return true
		case wQuit:
			return false
		}
		if spins < spin {
			spins++
			runtime.Gosched()
			continue
		}
		if w.flag.CompareAndSwap(wIdle, wParked) {
			<-w.park
		}
	}
}

// NewDomain returns a domain of n fresh shard schedulers sharing one
// epoch. lookahead must be positive when n > 1: it is the minimum
// virtual latency of any cross-shard delivery, and the window protocol
// is only conservative (deadlock- and causality-safe) if that bound
// holds. A single-shard domain is the sequential scheduler plus global
// events: no workers, no lookahead, every window run inline to the
// fence or the next global event — what every unsharded exp.World runs
// on.
func NewDomain(n int, lookahead time.Duration) *Domain {
	if n < 1 {
		panic("vtime: NewDomain needs at least one shard")
	}
	if n > 1 && lookahead <= 0 {
		panic("vtime: multi-shard domain needs positive lookahead")
	}
	d := &Domain{shards: make([]*Scheduler, n), lookahead: lookahead}
	for i := range d.shards {
		d.shards[i] = New()
	}
	d.nexts = make([]time.Duration, n)
	if n > 1 {
		// Persistent window workers: one goroutine per shard, woken
		// through a sense-reversing atomic flag. Windows are short (one
		// lookahead wide), so the wake path matters: armed-while-spinning
		// costs one atomic swap, and the driver waits on a single
		// completion token from the last finisher instead of a channel
		// round trip per shard per window.
		d.done = make(chan struct{}, 1)
		if runtime.GOMAXPROCS(0) > 1 {
			d.spin = 128
		}
		d.workers = make([]shardWorker, n)
		for i := range d.workers {
			w := &d.workers[i]
			w.s = d.shards[i]
			w.park = make(chan struct{}, 1)
			go d.workerLoop(w)
		}
	}
	return d
}

// workerLoop runs one shard's windows until shutdown.
func (d *Domain) workerLoop(w *shardWorker) {
	for w.awaitArm(d.spin) {
		w.s.RunUntil(w.horizon)
		if d.pending.Add(-1) == 0 {
			d.done <- struct{}{}
		}
	}
}

// Shards returns the number of shards.
func (d *Domain) Shards() int { return len(d.shards) }

// Shard returns shard i's scheduler. Actors and events on it must only
// touch that shard's state while a window is running; barrier code may
// touch anything.
func (d *Domain) Shard(i int) *Scheduler { return d.shards[i] }

// Now returns the committed horizon as wall time (all shard clocks agree
// with it between windows).
func (d *Domain) Now() time.Time { return d.shards[0].Now() }

// Elapsed returns the committed horizon.
func (d *Domain) Elapsed() time.Duration { return d.shards[0].Elapsed() }

// Windows returns the number of synchronization windows run so far.
func (d *Domain) Windows() uint64 { return d.windows }

// SkippedWindows returns how many of those windows were resolved
// without waking any worker goroutine (zero or one shard had events
// inside the horizon, so the driver ran the window inline) — all of
// them on a one-shard domain.
func (d *Domain) SkippedWindows() uint64 { return d.skipped }

// OnBarrier registers fn to run at every barrier, after all shards have
// parked at the window horizon and before global events fire. The
// simulated network registers its cross-shard merge here. Callbacks run
// on the driver goroutine, serialized with all shard execution.
func (d *Domain) OnBarrier(fn func()) { d.barriers = append(d.barriers, fn) }

// ScheduleGlobal arranges for fn to run at virtual elapsed time at, on
// the driver goroutine, with every shard parked exactly at that time.
// This is how world-scoped mutations (churn failing a host, membership
// edits) are applied race-free in a sharded world: the barrier is a
// happens-before edge to every shard, so plain writes to shard state
// made inside fn are visible to all subsequent windows. Events stamped
// in the past fire at the next barrier.
func (d *Domain) ScheduleGlobal(at time.Duration, fn func()) {
	d.gmu.Lock()
	d.gseq++
	heap.Push(&d.globals, globalEvent{at: at, seq: d.gseq, fn: fn})
	d.gmu.Unlock()
}

// nextGlobalAt peeks the earliest pending global event time.
func (d *Domain) nextGlobalAt() (time.Duration, bool) {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	if len(d.globals) == 0 {
		return 0, false
	}
	return d.globals[0].at, true
}

// fireGlobals runs every global event stamped at or before h, in
// (at, seq) order, and reports whether any ran. Shards are parked at h
// when this is called.
func (d *Domain) fireGlobals(h time.Duration) (fired bool) {
	for {
		d.gmu.Lock()
		if len(d.globals) == 0 || d.globals[0].at > h {
			d.gmu.Unlock()
			return fired
		}
		ev := heap.Pop(&d.globals).(globalEvent)
		d.gmu.Unlock()
		ev.fn()
		fired = true
	}
}

// runWindow advances every shard to horizon h and waits for all of them
// to park there. Only shards with an event stamped at or before h (per
// the d.nexts scan step just did) can fire anything — the rest get
// their clocks bumped inline with AdvanceTo, skipping the goroutine
// handoff entirely. A window with exactly one busy shard runs it on the
// driver goroutine (the common case for sparse phases, and the whole
// window path for skewed worlds), so the barrier machinery engages only
// when there is real concurrency to win.
func (d *Domain) runWindow(h time.Duration) {
	d.windows++
	if d.workers == nil {
		d.skipped++
		d.shards[0].RunUntil(h)
		return
	}
	active, last := 0, -1
	for i := range d.shards {
		if at := d.nexts[i]; at >= 0 && at <= h {
			active++
			last = i
		}
	}
	if active <= 1 {
		d.skipped++
		for i, s := range d.shards {
			if i != last {
				s.AdvanceTo(h)
			}
		}
		if last >= 0 {
			d.shards[last].RunUntil(h)
		}
		return
	}
	d.pending.Store(int32(active))
	for i := range d.workers {
		if at := d.nexts[i]; at >= 0 && at <= h {
			d.workers[i].arm(h)
		} else {
			d.shards[i].AdvanceTo(h)
		}
	}
	<-d.done
}

// barrier runs the registered drain callbacks.
func (d *Domain) barrier() {
	for _, fn := range d.barriers {
		fn()
	}
}

// forever is the fence of an unbounded run (Wait).
const forever = time.Duration(1<<63 - 1)

// step runs one synchronization window bounded by fence. It reports
// false when no pending work exists anywhere (shards, outboxes already
// drained, globals) — the domain is idle.
func (d *Domain) step(fence time.Duration) bool {
	minNext := time.Duration(-1)
	for i, s := range d.shards {
		at, ok := s.NextEventAt()
		if !ok {
			d.nexts[i] = -1
			continue
		}
		d.nexts[i] = at
		if minNext < 0 || at < minNext {
			minNext = at
		}
	}
	gAt, gOK := d.nextGlobalAt()
	if minNext < 0 && !gOK {
		return false
	}
	h := fence
	if minNext >= 0 && len(d.shards) > 1 {
		if wh := minNext + d.lookahead; wh < h {
			h = wh
		}
	}
	if gOK && gAt < h {
		h = gAt
	}
	if h < d.now {
		h = d.now
	}
	if h == forever {
		// Wait on one shard with no global pending: nothing bounds the
		// window, so drain the shard first and commit where its clock
		// stopped (RunUntil would jump the clock to the horizon).
		d.shards[0].Wait()
		h = d.shards[0].Elapsed()
	}
	d.runWindow(h)
	d.barrier()
	if d.fireGlobals(h) {
		// A global event may itself send across shards (a crash closes
		// the host's connections). Those frames left at h, so they drain
		// at this barrier: the next window's horizon is sized from the
		// shards' pending events alone and may lie beyond their arrival.
		d.barrier()
	}
	d.now = h
	return true
}

// RunFor drives the whole domain for dur of virtual time and returns the
// amount advanced (always dur: like Scheduler.RunFor, the clock jumps to
// the fence when events run out, so consecutive calls tile the
// timeline). Must be called from outside every shard.
func (d *Domain) RunFor(dur time.Duration) time.Duration {
	start := d.now
	fence := start + dur
	for d.now < fence {
		if !d.step(fence) {
			break
		}
	}
	if d.now < fence {
		for _, s := range d.shards {
			s.AdvanceTo(fence)
		}
		d.barrier() // keep invariants simple: a barrier per committed hop
		d.now = fence
	}
	return d.now - start
}

// Wait runs windows until no shard has pending work and no global events
// remain. Parked actors may remain, as with Scheduler.Wait.
func (d *Domain) Wait() {
	for d.step(forever) {
	}
}

// Shutdown stops every shard and the window workers. Idempotent.
func (d *Domain) Shutdown() {
	if d.stopped {
		return
	}
	d.stopped = true
	for i := range d.workers {
		w := &d.workers[i]
		if w.flag.Swap(wQuit) == wParked {
			w.park <- struct{}{}
		}
	}
	d.workers = nil
	for _, s := range d.shards {
		s.Shutdown()
	}
}

// String describes the domain for diagnostics.
func (d *Domain) String() string {
	return fmt.Sprintf("vtime.Domain{shards=%d lookahead=%s windows=%d}",
		len(d.shards), d.lookahead, d.windows)
}
