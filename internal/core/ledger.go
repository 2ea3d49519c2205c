package core

import (
	"fmt"
	"sync"
)

// Ledger is a live, mutating view of host slots shared by concurrent
// submissions. Where a single Submit works from a one-shot snapshot of
// the peer cache, a multi-job scheduler must know which hosts its own
// in-flight jobs already occupy: the ledger tracks, per host, the
// processes and applications acquired by running assignments, so the
// next job can exclude saturated hosts before brokering instead of
// discovering the conflict through ReserveNOK round-trips.
//
// A ledger built with no hosts is unconstrained: it reports nothing busy
// and unlimited free capacity. This is the degenerate mode used when
// host capacities are unknown (real-TCP submissions, where P values only
// arrive inside ReserveOK answers).
//
// All methods are safe for concurrent use.
type Ledger struct {
	mu    sync.Mutex
	hosts []HostSlot
	index map[string]int // host ID -> hosts offset
	procs []int          // processes acquired per host
	apps  []int          // applications acquired per host
	j     int            // owner J assumed for every host
}

// NewLedger builds a ledger over the given hosts (order preserved; it
// becomes the Snapshot order). jPerHost is the owner J limit assumed for
// every host — the number of simultaneous applications a host accepts —
// matching the paper's experiments where every peer runs with J = 1.
func NewLedger(hosts []HostSlot, jPerHost int) *Ledger {
	if jPerHost <= 0 {
		jPerHost = 1
	}
	l := &Ledger{
		hosts: append([]HostSlot(nil), hosts...),
		index: make(map[string]int, len(hosts)),
		procs: make([]int, len(hosts)),
		apps:  make([]int, len(hosts)),
		j:     jPerHost,
	}
	for i, h := range l.hosts {
		l.index[h.ID] = i
	}
	return l
}

// Unconstrained reports whether the ledger tracks no hosts and therefore
// imposes no view on submissions.
func (l *Ledger) Unconstrained() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.hosts) == 0
}

// freeLocked returns the residual process capacity of host i, zero when
// its application slots are exhausted.
func (l *Ledger) freeLocked(i int) int {
	if l.apps[i] >= l.j {
		return 0
	}
	free := l.hosts[i].P - l.procs[i]
	if free < 0 {
		free = 0
	}
	return free
}

// Snapshot returns the hosts that can still accept work, in ledger
// order, with P reduced to the residual capacity. The result is the
// slist-shaped input a scheduler feeds to Feasible before spending
// network round-trips on brokering.
func (l *Ledger) Snapshot() []HostSlot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []HostSlot
	for i, h := range l.hosts {
		if free := l.freeLocked(i); free > 0 {
			h.P = free
			out = append(out, h)
		}
	}
	return out
}

// Saturated reports whether the ledger tracks host id and it has no
// residual capacity (saturated process slots or exhausted application
// slots): a host a concurrent submission should exclude from booking.
// The booking walk asks it entry by entry, so no busy set is built.
func (l *Ledger) Saturated(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.index[id]
	return ok && l.freeLocked(i) == 0
}

// FreeProcs returns the total residual process capacity across all
// hosts, or -1 for an unconstrained ledger.
func (l *Ledger) FreeProcs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.hosts) == 0 {
		return -1
	}
	total := 0
	for i := range l.hosts {
		total += l.freeLocked(i)
	}
	return total
}

// InFlight returns the number of acquired (not yet released)
// applications summed over hosts, i.e. Σ apps_i. A job placed on five
// hosts counts five.
func (l *Ledger) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for _, a := range l.apps {
		total += a
	}
	return total
}

// Acquire charges the assignment's placed processes to the ledger: every
// host with u_i > 0 gains one application and u_i processes. Hosts the
// ledger does not track (e.g. the submitter itself) are ignored.
func (l *Ledger) Acquire(a *Assignment) {
	l.charge(a, +1)
}

// Release refunds a previous Acquire. Releasing an assignment that was
// never acquired corrupts the view; the ledger clamps at zero and
// panics only on negative application counts, which always indicate a
// double release.
func (l *Ledger) Release(a *Assignment) {
	l.charge(a, -1)
}

func (l *Ledger) charge(a *Assignment, sign int) {
	if a == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, u := range a.U {
		if u == 0 {
			continue
		}
		idx, ok := l.index[a.Hosts[i].ID]
		if !ok {
			continue
		}
		l.procs[idx] += sign * u
		l.apps[idx] += sign
		if l.procs[idx] < 0 {
			l.procs[idx] = 0
		}
		if l.apps[idx] < 0 {
			panic(fmt.Sprintf("core: ledger double release on host %s", a.Hosts[i].ID))
		}
	}
}
