// Package churn names the host-crash model of internal/faults under
// its former import path, for callers not yet moved.
package churn

import "p2pmpi/internal/faults"

type (
	// Config is a fault model; its crash fields drive host churn.
	Config = faults.Config
	// Driver replays a fault timeline; Stop reports what was injected.
	Driver = faults.Driver
)
