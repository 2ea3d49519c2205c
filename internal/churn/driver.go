package churn

import (
	"sync"
	"time"

	"p2pmpi/internal/vtime"
)

// Hooks receive the deduplicated liveness transitions of the replay.
// They run at domain barriers — on the goroutine driving the domain,
// every shard parked at the transition's exact virtual time — one at a
// time, in timeline order: implementations may touch any shard's state
// freely but must not block.
type Hooks struct {
	// Down fires when a host loses its last liveness cause (first
	// failure while up).
	Down func(host string)
	// Up fires when a host regains liveness (every overlapping cause —
	// own failure and site outage — has cleared).
	Up func(host string)
}

// Stats summarises an injection run.
type Stats struct {
	// Failures and Restores count deduplicated host transitions actually
	// fired (a host failing inside a site outage does not fail twice).
	Failures, Restores int
	// SiteOutages counts whole-site outage onsets.
	SiteOutages int
	// HostDownTime accumulates per-host downtime, summed over hosts.
	HostDownTime time.Duration
	// Observed is the injection span from Start to Stop (or now).
	Observed time.Duration
	// Hosts is the platform host count DownFraction normalizes over
	// (SetHostCount; defaults to the distinct hosts in the trace —
	// an overestimate of downtime whenever some hosts never failed).
	Hosts int
}

// DownFraction returns HostDownTime / (Hosts × Observed): the measured
// fraction of host-time spent down, the quantity MTTR/(MTBF+MTTR)
// predicts for exponential lifetimes.
func (s Stats) DownFraction() float64 {
	if s.Hosts == 0 || s.Observed <= 0 {
		return 0
	}
	return float64(s.HostDownTime) / (float64(s.Hosts) * float64(s.Observed))
}

// Driver replays a trace as global events of a vtime.Domain. Overlapping
// down causes are reference-counted per host so the hooks see each host
// transition at most once per actual liveness change.
type Driver struct {
	dom   *vtime.Domain
	trace []Event
	hooks Hooks

	mu         sync.Mutex
	started    bool
	stopped    bool
	startAt    time.Time
	downCauses map[string]int
	downSince  map[string]time.Time
	siteActive map[string]bool
	stats      Stats
}

// NewDriver builds a driver over a precomputed trace (see Trace).
func NewDriver(dom *vtime.Domain, trace []Event, hooks Hooks) *Driver {
	hostSet := make(map[string]bool)
	for _, ev := range trace {
		hostSet[ev.Host] = true
	}
	return &Driver{
		dom:        dom,
		trace:      trace,
		hooks:      hooks,
		downCauses: make(map[string]int),
		downSince:  make(map[string]time.Time),
		siteActive: make(map[string]bool),
		stats:      Stats{Hosts: len(hostSet)},
	}
}

// SetHostCount tells the driver how many hosts the platform has, so
// DownFraction normalizes over the whole platform rather than only the
// hosts that happen to appear in the trace (at MTBF long relative to
// the horizon most hosts never fail, and a trace-derived denominator
// would overstate platform downtime). Call before Start; non-positive
// values keep the trace-derived count.
func (d *Driver) SetHostCount(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > 0 {
		d.stats.Hosts = n
	}
}

// Start schedules the trace, offset from the domain's current time, as
// domain-global events: each transition fires at a window barrier, when
// every shard is parked at the event's exact virtual time. That makes
// the hooks' world mutations (failing a host's network links, crashing
// its daemon) race-free against all shard event loops — the barrier is
// the happens-before edge. Idempotent.
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
		fire(ev.Host)
	}
}

// applyLocked folds one event into the liveness view and returns the
// hook to fire (nil when the event changed no observable state).
func (d *Driver) applyLocked(ev Event) func(string) {
	if ev.Down {
		if ev.Site != "" && !d.siteActive[ev.Site] {
			d.siteActive[ev.Site] = true
			d.stats.SiteOutages++
		}
		d.downCauses[ev.Host]++
		if d.downCauses[ev.Host] == 1 {
			d.stats.Failures++
			d.downSince[ev.Host] = d.dom.Now()
			return d.hooks.Down
		}
		return nil
	}
	if ev.Site != "" {
		d.siteActive[ev.Site] = false
	}
	if d.downCauses[ev.Host] == 0 {
		return nil // spurious repair (trace truncated at horizon)
	}
	d.downCauses[ev.Host]--
	if d.downCauses[ev.Host] > 0 {
		return nil // still down for another cause
	}
	d.stats.Restores++
	d.stats.HostDownTime += d.dom.Now().Sub(d.downSince[ev.Host])
	delete(d.downSince, ev.Host)
	return d.hooks.Up
}

// Alive reports whether the driver currently considers a host up.
func (d *Driver) Alive(host string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.downCauses[host] == 0
}

// Stop halts injection (no further hooks fire) and returns the settled
// stats: hosts still down are charged their downtime up to now.
// Idempotent; later calls return the same snapshot.
func (d *Driver) Stop() Stats {
	now := d.dom.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.stopped {
		d.stopped = true
		for h, since := range d.downSince {
			d.stats.HostDownTime += now.Sub(since)
			delete(d.downSince, h)
		}
		if d.started {
			d.stats.Observed = now.Sub(d.startAt)
		}
	}
	return d.stats
}
