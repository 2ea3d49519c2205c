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
// shard's own RunFor: fault timelines — host crashes included — are
// the domain's global events (StartFaults, StartChurn). The zero topology builds the paper's Grid'5000 (Table 1, 350
// hosts); grid.TopologySpec scales synthetic worlds to a million.
//
// World.Boot starts the daemons from a chain of timer events per shard
// and warms the submitter up with one transport.Call, so a booted world
// holds no actor: only processes of the simulated system — jobs, MPI
// ranks, scheduler workers and the harness's submitters — are actors.
//
// Experiment families:
//
//   - Table1/Fig2/Fig3/Fig4: the paper's figures (experiments.go,
//     estimators.go). TestTable1MatchesPaper, TestFig4ISCrossover and
//     TestFig4EPEquilibrium pin the paper's claims.
//   - ConcurrentJobs/ConcurrentSweep: K simultaneous jobs through the
//     multi-job scheduler, measuring slot contention (concurrent.go).
//   - ScaleSweep: every placement strategy across growing
//     world sizes and federation widths (scale.go).
//   - OpenSweep: an open system — seeded arrival processes, tenants,
//     priorities, quotas, preemption and deadlines through the
//     scheduler for hours to a week of virtual time, reported as
//     streaming quantiles (open.go, internal/workload, internal/sched).
//   - NemesisSweep: partitions, loss, gray hosts, duplication and host
//     churn against replication, the retry layer and the federated
//     membership tier, with heal times and job outcomes per (loss,
//     partition duration, MTBF, R, strategy) point (nemesis.go,
//     internal/faults). NemesisConfig.Faults is the one fault-model
//     template every point starts from. The churn family is this sweep
//     with no network faults: survivability under seeded host failures
//     — success rate, completion-time inflation, replica failovers and
//     wasted slot-hours (ChurnSheet).
//
// Every output shape has one builder that returns a Sheet — a header
// row, then one row of cells per point (Table1Sheet, SiteSheet,
// TimeSheet, ConcurrentSheet, …). Sheet.CSV and Sheet.Table print the
// same cells, comma-separated or aligned under a title.
//
// Sweeps whose points own independent worlds — fig4's two strategy
// curves and every point of ConcurrentSweep, ScaleSweep, OpenSweep and
// NemesisSweep — run through one runner (sweep, parallel.go): it takes
// the coordinates, a worker count and a per-coordinate function, returns
// the results in coordinate order and wraps a failing coordinate's
// error with the coordinate. Because each world is deterministic under
// its seed, outputs are byte-identical whatever the pool width — the
// property the *DeterministicAcrossWorkers tests pin.
package exp
