package workload

import (
	"sync"
	"time"

	"p2pmpi/internal/vtime"
)

// Stats summarises a replay.
type Stats struct {
	// Submitted counts submissions actually handed to the hook.
	Submitted int
	// Observed is the replay span from Start to Stop (or to the last
	// submission).
	Observed time.Duration
}

// Driver replays a submission timeline against a vtime.Runtime as a
// chain of timer events: each event hands the Submissions due at its
// instant to the hook, in timeline order, and queues the next event at
// the following arrival. The hook runs in that event, outside any
// actor, and must not block — hand the submission to a scheduler queue
// (sched.Scheduler.Enqueue never blocks) and return.
type Driver struct {
	rt     vtime.Runtime
	next   func() (Submission, bool)
	submit func(Submission)

	mu      sync.Mutex
	started bool
	stopped bool
	drained bool
	startAt time.Time
	stats   Stats
}

// NewDriver builds a driver over a pull source: next is called once
// per submission, from the replay's events only, and must return
// timeline-ordered submissions until it reports false. Stream.Next is
// the source, so even a week-long multi-million-submission replay holds
// O(tenants) generator state, never the trace.
func NewDriver(rt vtime.Runtime, next func() (Submission, bool), submit func(Submission)) *Driver {
	return &Driver{rt: rt, next: next, submit: submit}
}

// Start queues the replay's first event at the current instant; arrival
// offsets count from here. Idempotent.
func (d *Driver) Start() {
	d.mu.Lock()
	if d.started || d.stopped {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.startAt = d.rt.Now()
	d.mu.Unlock()
	d.rt.Schedule(0, func() { d.replay(d.next()) })
}

// replay delivers sub and every later submission already due, then
// queues the event of the first one that is not.
func (d *Driver) replay(sub Submission, ok bool) {
	for ; ok; sub, ok = d.next() {
		if wait := d.startAt.Add(sub.At).Sub(d.rt.Now()); wait > 0 {
			d.rt.Schedule(wait, func() { d.replay(sub, true) })
			return
		}
		// Stop/submit must be atomic per submission: a Stop that lands
		// between the stopped check and the hook call would otherwise
		// count a submission as Submitted and then suppress it — or
		// deliver it after Stop returned its settled stats. Holding d.mu
		// across both makes each submission all-or-nothing. The hook
		// must not block (documented on Driver), so the critical
		// section stays short.
		d.mu.Lock()
		if d.stopped {
			d.mu.Unlock()
			break
		}
		d.stats.Submitted++
		d.submit(sub)
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.drained = true
	d.mu.Unlock()
}

// Drained reports whether the replay delivered the whole timeline (or
// was stopped): polled by harness pump loops; never blocks.
func (d *Driver) Drained() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drained
}

// Stop halts the replay (no further submissions fire) and returns the
// settled stats. Idempotent; later calls return the same snapshot.
func (d *Driver) Stop() Stats {
	now := d.rt.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.stopped {
		d.stopped = true
		if d.started {
			d.stats.Observed = now.Sub(d.startAt)
		}
	}
	return d.stats
}
