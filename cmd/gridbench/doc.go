// Command gridbench regenerates every table and figure of the paper's
// evaluation on the modelled Grid'5000 testbed:
//
//	gridbench -exp table1            # Table 1, the resource inventory
//	gridbench -exp fig2              # Figure 2, concentrate allocation
//	gridbench -exp fig3              # Figure 3, spread allocation
//	gridbench -exp fig4ep            # Figure 4 left, NAS EP times
//	gridbench -exp fig4is            # Figure 4 right, NAS IS times
//	gridbench -exp all               # everything above
//	gridbench -exp conc              # beyond the paper: K concurrent jobs
//	gridbench -exp scale -grid synth:S=10,H=100   # beyond the paper: world-size sweep
//	gridbench -exp scale -grid synth:S=16,H=100 -hosts 5000,20000,50000 -sn 1,4,16
//	                                 # beyond the paper: federated membership tier at 50k hosts
//	gridbench -exp churn -grid synth:S=12,H=400 -mtbf 600,1800,3600 -R 1,2,3
//	                                 # beyond the paper: survivability under host churn
//	gridbench -exp open -grid synth:S=3,H=8 -arrival poisson:rate=0.02 -duration 2h
//	gridbench -exp open -arrival diurnal:peak=0.05,trough=0.005,period=1h -tenants 4 -duration 3h
//	                                 # beyond the paper: open-system steady state
//	gridbench -exp nemesis -grid synth:S=3,H=8 -loss 0,0.1,0.3 -partdur 0,60 -sn 4
//	gridbench -exp nemesis -faults "gray:frac=0.2,mtbf=2m;dup:p=0.01" -loss 0.1 -partdur 30
//	                                 # beyond the paper: partition & gray-failure tolerance
//	gridbench -exp estimators        # beyond the paper: latency-estimator ablation
//
// The conc experiment family submits K identical jobs simultaneously
// through the multi-job scheduler and reports, per strategy, the mean
// allocation footprint (sites/hosts used), completion time and the
// reservation-conflict rate — contention the paper's one-job-at-a-time
// harness never exercises. Tune it with -jobs (K axis), -n, -r.
//
// The churn experiment family injects seeded host failures (exponential
// or Weibull MTBF/MTTR per host via -mtbf/-mttr/-dist, optionally
// correlated whole-site outages via -sitemtbf) while a batch of
// fixed-duration jobs (-cjobs, -dur) runs with the mid-run failure
// detector armed, and reports per (strategy, MTBF, replication degree)
// point the job success rate, completion-time inflation, replica
// failovers, re-booked attempts and wasted slot-hours. -R sets the
// replication axis; every -a strategy is swept. It is the nemesis sweep
// below with no network faults and the RPC retry layer off. Identical
// seeds replay identical failures, whatever -workers is.
//
// The open experiment family replaces the closed batches with an open
// arrival process (-arrival "poisson:rate=0.5" or
// "diurnal:peak=2,trough=0.2,period=24h,maintevery=6h,maintdur=30m")
// over -tenants users with Zipf rate skew (-skew) and stratified
// admission priorities (-prilevels), replayed for -duration of virtual
// time with the leading -warmup truncated. Job widths and service
// durations are bounded-Pareto draws. Per strategy it reports
// steady-state utilization, queue-wait P50/P90/P99 and bounded-slowdown
// percentiles from streaming t-digests (O(1) memory per metric,
// whatever the submission count), and Jain fairness across tenants.
// A single -mtbf value composes host churn with the open workload.
//
// The nemesis experiment family injects seeded network misbehaviour —
// site-pair partitions including federation-splitting bisections,
// uniform cross-site frame loss, latency inflation, gray hosts that
// stay up but drop or slow traffic, and bounded frame duplication —
// while a batch of jobs runs with the RPC robustness layer (deadlines,
// seeded exponential-backoff retries, receiver-side idempotency,
// per-supernode circuit breakers) armed. -loss and -partdur are the
// swept axes; -faults supplies the remaining fault-model knobs in the
// faults.ParseFaultSpec syntax; -rpcretries sets the retry budget (-1
// disables the layer, the no-robustness baseline); a single -mtbf
// composes host churn on top, shaped by -mttr, -dist, -shape, -sitemtbf
// and -sitemttr as in -exp churn. Per (loss, partition duration) point it
// reports success rate, completion-time inflation, retry volume and —
// on federated worlds (-sn K>1) — the split-brain window and the
// anti-entropy healing latency after each partition lifts.
//
// The scale experiment family frees the evaluation from Table 1: it
// boots synthetic worlds described by -grid (site count, hosts per
// site, seeded inter-site RTT distribution; see grid.ParseTopologySpec)
// and measures every placement strategy at every -hosts world
// size, reporting completion time, allocation footprint and
// reservation-conflict rate per (strategy, size) point. -a selects a strategy subset ("all" by default; any
// comma-separated strategy names, e.g. -a comm-aware,minsites). -sn
// adds the membership-tier axis: each K boots a federation of K
// gossiping supernode shards (registration latency, gossip staleness
// and membership bytes join the CSV columns), which is what pushes the
// sweeps into the 50k-host regime — a single supernode's O(world)
// replies saturate long before the simulation core does.
//
// Every step builds one sheet of cells (exp.Sheet): -format csv prints
// them comma-separated, and the default -format table prints the
// step's title and then the same cells aligned, one column per CSV
// header field.
//
// Experiments built from independent worlds (fig4's two strategy
// worlds, every conc sweep point) run across a -workers wide pool;
// outputs are byte-identical whatever the worker count. fig2 and fig3
// are inherently sequential — their points share one world.
//
// The -seed flag changes the stochastic elements (latency jitter, key
// generation); the default, 42, is the seed at which internal/exp's
// TestTable1MatchesPaper, TestFig4ISCrossover and TestFig4EPEquilibrium
// pin the paper's Table 1 and Figure 4 claims.
package main
