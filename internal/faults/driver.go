package faults

import (
	"sync"
	"time"

	"p2pmpi/internal/vtime"
)

// Hooks receive the deduplicated fault transitions of the replay. They
// run at domain barriers — on the goroutine driving the domain, every
// shard parked at the transition's exact virtual time — one at a time,
// in timeline order: implementations may touch any shard's state freely
// but must not block.
type Hooks struct {
	// Partition fires when a site pair's link is first cut (on) and when
	// its last overlapping cut lifts (off).
	Partition func(a, b string, on bool)
	// Gray fires on a host's gray-episode boundaries.
	Gray func(host string, on bool)
	// Healed fires when the last active cut of a partition spell lifts:
	// the network is whole again and anti-entropy can reconverge. start
	// is when the spell began (the first cut of the spell).
	Healed func(start, end time.Time)
}

// Stats summarises an injection run.
type Stats struct {
	// Partitions counts partition spells (transitions from a whole
	// network to one with at least one active cut). CutPairs counts
	// deduplicated per-link cut onsets.
	Partitions, CutPairs int
	// GrayEpisodes counts gray-episode onsets.
	GrayEpisodes int
	// PartitionTime accumulates wall time with at least one active cut.
	PartitionTime time.Duration
	// Observed is the injection span from Start to Stop (or now).
	Observed time.Duration
}

// Driver replays a fault trace as global events of a vtime.Domain.
// Overlapping episodes cutting the same site pair are reference-counted
// so the hooks see each link transition at most once per actual state
// change.
type Driver struct {
	dom   *vtime.Domain
	trace []Event
	hooks Hooks

	mu         sync.Mutex
	started    bool
	stopped    bool
	startAt    time.Time
	cutCauses  map[[2]string]int
	grayActive map[string]bool
	activeCuts int
	splitSince time.Time
	stats      Stats
}

// NewDriver builds a driver over a precomputed trace (see Trace).
func NewDriver(dom *vtime.Domain, trace []Event, hooks Hooks) *Driver {
	return &Driver{
		dom:        dom,
		trace:      trace,
		hooks:      hooks,
		cutCauses:  make(map[[2]string]int),
		grayActive: make(map[string]bool),
	}
}

// Start schedules the trace, offset from the domain's current time, as
// domain-global events: each transition fires at a window barrier, when
// every shard is parked at the event's exact virtual time. That makes
// the hooks' world mutations (cutting simnet links, flipping gray state)
// race-free against all shard event loops — the barrier is the
// happens-before edge — and, because fault state is then constant
// within every window whatever the shard count, keeps the trajectory
// byte-identical across shard counts. Idempotent.
func (d *Driver) Start() {
	d.mu.Lock()
	if d.started || d.stopped {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.startAt = d.dom.Now()
	base := d.dom.Elapsed()
	d.mu.Unlock()
	for _, ev := range d.trace {
		d.dom.ScheduleGlobal(base+ev.At, func() { d.fire(ev) })
	}
}

func (d *Driver) fire(ev Event) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	fire := d.applyLocked(ev)
	d.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// applyLocked folds one event into the fault view and returns the hook
// invocation to fire (nil when the event changed no observable state).
func (d *Driver) applyLocked(ev Event) func() {
	now := d.dom.Now()
	switch ev.Kind {
	case EvPartition:
		key := [2]string{ev.A, ev.B}
		if ev.On {
			d.cutCauses[key]++
			if d.cutCauses[key] > 1 {
				return nil // already cut by an overlapping episode
			}
			d.stats.CutPairs++
			d.activeCuts++
			if d.activeCuts == 1 {
				d.stats.Partitions++
				d.splitSince = now
			}
			if h := d.hooks.Partition; h != nil {
				return func() { h(ev.A, ev.B, true) }
			}
			return nil
		}
		if d.cutCauses[key] == 0 {
			return nil // spurious heal (trace truncated at horizon)
		}
		d.cutCauses[key]--
		if d.cutCauses[key] > 0 {
			return nil // still cut for another episode
		}
		delete(d.cutCauses, key)
		d.activeCuts--
		var healed func(start, end time.Time)
		var since time.Time
		if d.activeCuts == 0 {
			d.stats.PartitionTime += now.Sub(d.splitSince)
			healed, since = d.hooks.Healed, d.splitSince
		}
		part := d.hooks.Partition
		if part == nil && healed == nil {
			return nil
		}
		return func() {
			if part != nil {
				part(ev.A, ev.B, false)
			}
			if healed != nil {
				healed(since, now)
			}
		}
	case EvGray:
		if ev.On == d.grayActive[ev.Host] {
			return nil
		}
		d.grayActive[ev.Host] = ev.On
		if ev.On {
			d.stats.GrayEpisodes++
		}
		if h := d.hooks.Gray; h != nil {
			return func() { h(ev.Host, ev.On) }
		}
	}
	return nil
}

// Cut reports whether the driver currently considers a site pair cut.
func (d *Driver) Cut(a, b string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cutCauses[pairOf(a, b)] > 0
}

// Gray reports whether a host is currently inside a gray episode.
func (d *Driver) Gray(host string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.grayActive[host]
}

// Stop halts injection (no further hooks fire) and returns the settled
// stats: an open partition spell is charged up to now. Idempotent;
// later calls return the same snapshot.
func (d *Driver) Stop() Stats {
	now := d.dom.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.stopped {
		d.stopped = true
		if d.activeCuts > 0 {
			d.stats.PartitionTime += now.Sub(d.splitSince)
			d.activeCuts = 0
		}
		if d.started {
			d.stats.Observed = now.Sub(d.startAt)
		}
	}
	return d.stats
}
