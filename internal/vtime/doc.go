// Package vtime provides a deterministic discrete-event virtual-time
// scheduler. It is the substrate on which the whole Grid'5000 simulation
// runs: every daemon, every MPI process and every in-flight message is an
// actor or an event on a single virtual clock.
//
// The scheduler is conservative and strictly sequential: exactly one actor
// executes at any moment, and the clock advances only when every actor is
// parked. Together with seeded random sources this makes large simulations
// (hundreds of peers, hundreds of thousands of messages) reproducible
// bit-for-bit, which the experiment harness relies on — including its
// parallel sweep mode, where independent worlds run on separate OS
// threads without perturbing each other's timelines.
//
// Actors are coroutines registered with (*Scheduler).Go and resumed, one
// at a time, by the driver: the goroutine that called Wait, RunFor or
// RunUntil. Nothing runs without a driver, and a scheduler has one driver
// at a time. The hot path is run-to-completion: pure timer events (Sleep
// expiries, queue timeouts) fire inline on the dispatch loop under one
// lock acquisition, events live in a pooled slab behind a 4-ary heap, and
// when the next runnable actor is the one already running the dispatch it
// carries on with no switch at all. A Sleep tick costs one mutex cycle
// and zero allocations; Now/Elapsed are lock-free. Control moving from
// one actor to another costs two direct coroutine switches through the
// driver and never touches the Go scheduler's run queue. See docs/PERF.md
// for the execution model, the rules the driver model adds, and the
// determinism rules fast-path code must follow.
//
// Actors may block only through scheduler primitives (Sleep, Queue.Pop,
// Mailbox, Parker). Blocking through ordinary channel operations or OS calls
// blocks the driver and with it the whole scheduler. Callbacks scheduled
// with After/Schedule/ScheduleArg run outside any actor context — never
// concurrently with an actor — and must not block. A panic in an actor
// or callback surfaces on the driving goroutine. Shutdown unwinds every
// actor before it returns.
//
// The Runtime interface is the portable subset middleware is written
// against: Scheduler implements it in virtual time, Real implements it
// on the wall clock, and the identical daemon code runs in both worlds.
// Mailbox is the portable blocking FIFO used wherever concurrent
// results are gathered.
package vtime
