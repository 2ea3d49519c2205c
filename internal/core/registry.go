package core

import (
	"fmt"
	"maps"
	"slices"
)

// Placement is a process-placement policy: given the reserved host
// list slist (in ascending-latency order) and a request for n ranks with
// replication degree r, it decides how many processes each host receives
// and how ranks are numbered.
//
// Implementations must be deterministic in their inputs (the simulation
// harness replays worlds bit-for-bit) and must respect the capacity rule
// u_i ≤ min(P_i, n); producing ranks through assignRanks-style numbering
// then guarantees the replica-safety criterion (no two replicas of one
// rank on one host). Every policy of the placement set is selectable by
// name everywhere a Strategy travels: JobSpec, the schedulers, both CLIs
// and the experiment harness.
type Placement interface {
	// Name is the lookup key and command-line spelling of the policy.
	Name() string
	// Allocate maps n×r processes onto slist or fails with the
	// feasibility errors of this package.
	Allocate(slist []HostSlot, n, r int) (*Assignment, error)
}

// names is every placement name in sorted order.
var names = slices.Sorted(maps.Keys(placements))

// Lookup resolves a strategy name to its placement policy. The empty
// name resolves to Spread, preserving the historical zero-value default
// of JobSpec.Strategy.
func Lookup(name string) (Placement, error) {
	if name == "" {
		name = string(Spread)
	}
	p, ok := placements[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown allocation strategy %q (want one of %v)", name, names)
	}
	return p, nil
}

// Names lists every strategy name in sorted order.
func Names() []string { return slices.Clone(names) }

// Strategies returns Names as Strategy values, for ranging over every
// placement policy in experiments and CLIs.
func Strategies() []Strategy {
	out := make([]Strategy, len(names))
	for i, n := range names {
		out[i] = Strategy(n)
	}
	return out
}
