// Package exp is the experiment harness: it deploys the complete
// P2P-MPI middleware on a modelled testbed and regenerates every table
// and figure of the paper's evaluation (§5), then extends the
// evaluation along axes the paper never swept.
//
// A World is one booted deployment — one compute peer per grid host,
// one submitter frontend, and a membership tier of one supernode or a
// federation of K (Options.Supernodes) — on a vtime.Domain (one
// scheduler shard by default, Options.Shards of them in conservative
// lockstep windows) and a simulated network (simnet.Net) partitioned by
// site across those shards. Drive it with World.RunFor, never with a
// shard's own RunFor: churn and fault timelines are the domain's global
// events. The zero topology builds the paper's Grid'5000 (Table 1, 350
// hosts); grid.TopologySpec scales synthetic worlds to a million.
//
// Experiment families:
//
//   - Table1/Fig2/Fig3/Fig4: the paper's figures (experiments.go,
//     estimators.go); see EXPERIMENTS.md for the paper-vs-measured
//     record.
//   - ConcurrentJobs/ConcurrentSweep: K simultaneous jobs through the
//     multi-job scheduler, measuring slot contention (concurrent.go).
//   - ScaleSweep: every registered placement strategy across growing
//     world sizes and federation widths (scale.go).
//   - ChurnSweep: survivability under seeded host failures — success
//     rate, completion-time inflation, replica failovers and wasted
//     slot-hours per (strategy, MTBF, replication degree) point
//     (churn.go, internal/churn).
//   - OpenSweep: an open system — seeded arrival processes, tenants,
//     priorities, quotas, preemption and deadlines through the
//     scheduler for hours to a week of virtual time, reported as
//     streaming quantiles (open.go, internal/workload, internal/sched).
//   - NemesisSweep: partitions, loss, gray hosts and duplication
//     against the retry layer and the federated membership tier, with
//     heal times and job outcomes per point (nemesis.go,
//     internal/faults).
//
// Sweeps whose points own independent worlds run across a bounded
// worker pool (parallel.go): because each world is deterministic under
// its seed, outputs are byte-identical whatever the pool width — the
// property the *DeterministicAcrossWorkers tests pin.
package exp
