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
// and measures every registered placement strategy at every -hosts world
// size, reporting completion time, allocation footprint and
// reservation-conflict rate per (strategy, size) point as CSV with
// -format csv. -a selects a strategy subset ("all" by default; any
// comma-separated registered names, e.g. -a comm-aware,minsites). -sn
// adds the membership-tier axis: each K boots a federation of K
// gossiping supernode shards (registration latency, gossip staleness
// and membership bytes join the CSV columns), which is what pushes the
// sweeps into the 50k-host regime — a single supernode's O(world)
// replies saturate long before the simulation core does.
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

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/workload"
)

func main() {
	which := flag.String("exp", "all", "experiment: table1|fig2|fig3|fig4ep|fig4is|all|conc|scale|churn|open|nemesis|estimators")
	seed := flag.Int64("seed", 42, "simulation seed")
	format := flag.String("format", "table", "output format: table|csv")
	jobs := flag.String("jobs", "1,2,4,8,16", "conc: comma-separated K values (concurrent jobs per point)")
	n := flag.Int("n", 32, "conc/scale/churn/nemesis: processes per job")
	r := flag.Int("r", 1, "conc/scale/nemesis: replication degree per job")
	gridSpec := flag.String("grid", "grid5000", "topology: grid5000 or synth:S=12,H=400,C=2,seed=7,rttmin=5ms,rttmax=25ms")
	alloc := flag.String("a", "all", "conc/scale/churn: strategies, \"all\" or comma-separated names from: "+strings.Join(core.Names(), "|"))
	hosts := flag.String("hosts", "", "scale: comma-separated world sizes (hosts); default: the -grid spec's own size")
	sn := flag.String("sn", "", "supernode-federation width K; scale takes a comma-separated axis (e.g. 1,4,16), conc/churn a single value; default: the -grid spec's sn value (1)")
	workers := flag.Int("workers", exp.DefaultWorkers(), "pool width for fig4, conc, scale, churn and nemesis sweeps (independent worlds)")
	shards := flag.Int("shards", 1, "shard count of each world's virtual-time domain: partition sites onto N event loops synchronized by lookahead barriers (1 = one shard, every window inline; output is byte-identical for any value). More shards pay off only with cores to spare: on 2 cores a 6 400-host world runs slower sharded than with 1")
	mtbf := flag.String("mtbf", "", "churn: comma-separated per-host MTBF axis (seconds or Go durations, e.g. 600,1800 or 10m,30m); open/nemesis: one value composes host churn")
	mttr := flag.String("mttr", "60", "churn, open/nemesis with -mtbf: mean per-host repair time (seconds or Go duration)")
	rAxis := flag.String("R", "1,2", "churn: comma-separated replication-degree axis")
	cjobs := flag.Int("cjobs", 8, "churn/nemesis: jobs per sweep point")
	dur := flag.Float64("dur", 120, "churn/nemesis: per-job spin duration (virtual seconds, the failure-free baseline)")
	detect := flag.String("detect", "10", "churn/nemesis: failure-detector probe period (seconds or Go duration)")
	dist := flag.String("dist", "exp", "churn, open/nemesis with -mtbf: lifetime distribution, exp|weibull")
	shape := flag.Float64("shape", 0.7, "churn, open/nemesis with -mtbf: Weibull shape (with -dist weibull)")
	siteMTBF := flag.String("sitemtbf", "0", "churn, open/nemesis with -mtbf: mean time between correlated whole-site outages (seconds or Go duration; 0 disables)")
	siteMTTR := flag.String("sitemttr", "0", "churn, open/nemesis with -mtbf: mean whole-site outage duration (seconds or Go duration; default sitemtbf/20)")
	arrival := flag.String("arrival", "poisson:rate=0.01", "open: arrival process, poisson:rate=R or diurnal:peak=P,trough=T[,period=D,maintevery=D,maintdur=D]")
	tenants := flag.Int("tenants", 1, "open: submitting tenants")
	skew := flag.Float64("skew", 0, "open: Zipf skew of the tenants' rate shares (0 = equal)")
	priLevels := flag.Int("prilevels", 1, "open: admission priority levels stratified over the tenants")
	duration := flag.String("duration", "", "open: arrival horizon (seconds or Go duration, required)")
	warmup := flag.String("warmup", "auto", "open: leading transient excluded from statistics (auto = duration/10, 0 = none)")
	maxSubs := flag.Int("maxsubs", 0, "open: cap the submission trace per point (0 = uncapped)")
	nMin := flag.Int("nmin", 0, "open: minimum processes per submission (0 = workload default)")
	nMax := flag.Int("nmax", 0, "open: maximum processes per submission (0 = workload default)")
	durMin := flag.Float64("durmin", 0, "open: minimum job service time (virtual seconds; 0 = workload default)")
	durMax := flag.Float64("durmax", 0, "open: maximum job service time (virtual seconds; 0 = workload default)")
	quota := flag.Float64("quota", 0, "open: per-tenant quota accrual rate (slot-seconds per virtual second; 0 disables quotas)")
	quotaBurst := flag.Float64("quotaburst", 0, "open: quota bucket cap (slot-seconds; 0 = one hour at -quota)")
	preempt := flag.Bool("preempt", false, "open: let starved in-budget higher-priority jobs evict over-budget lower-priority running jobs")
	inflight := flag.Int("inflight", 0, "open: scheduler worker pool — max concurrent in-flight jobs per point (0 = default 8; size to arrival-rate × service time or the backlog grows)")
	deadline := flag.String("deadline", "", "open: comma-separated per-priority-class deadline factors, highest class first (deadline = arrival + factor×service; last entry reused; empty disables SLO tracking)")
	faultsSpec := flag.String("faults", "", "nemesis: fault-model spec (part:mtbf=10m,split=1;link:loss=0.1,mult=2;gray:frac=0.1,mtbf=5m;dup:p=0.01); -loss/-partdur override its link-loss and partition-duration values as swept axes")
	lossAxis := flag.String("loss", "", "nemesis: comma-separated cross-site drop-probability axis (e.g. 0,0.1,0.3)")
	partDur := flag.String("partdur", "", "nemesis: comma-separated mean partition duration axis (seconds or Go durations; 0 = no partitions at that point)")
	rpcRetries := flag.Int("rpcretries", 2, "nemesis: RPC robustness-layer retry budget per exchange (-1 disables the layer)")
	breaker := flag.Int("breaker", 0, "nemesis: per-supernode circuit-breaker threshold (consecutive failures; 0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit (pprof format)")
	flag.Parse()
	csv := *format == "csv"

	// Profiling hooks: hot-path hunts run the very binary that produces
	// the figures instead of an ad-hoc test rig, so the profile covers
	// world boot, the sweep pool and rendering exactly as shipped.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	topo, err := grid.ParseTopologySpec(*gridSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: -grid: %v\n", err)
		os.Exit(2)
	}
	strategies, err := parseStrategies(*alloc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: -a: %v\n", err)
		os.Exit(2)
	}
	if topo.IsSynthetic() && *which != "scale" && *which != "conc" && *which != "churn" && *which != "open" && *which != "nemesis" {
		fmt.Fprintf(os.Stderr, "gridbench: -grid %s only applies to -exp scale, conc, churn, open and nemesis; the paper figures are pinned to grid5000\n", topo)
		os.Exit(2)
	}

	var snAxis []int
	if *sn != "" {
		var err error
		if snAxis, err = parseKs(*sn); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -sn: %v\n", err)
			os.Exit(2)
		}
		if *which != "scale" && *which != "conc" && *which != "churn" && *which != "open" && *which != "nemesis" {
			fmt.Fprintf(os.Stderr, "gridbench: -sn only applies to -exp scale, conc, churn, open and nemesis; the paper figures are pinned to the single supernode\n")
			os.Exit(2)
		}
		if *which != "scale" && len(snAxis) != 1 {
			fmt.Fprintf(os.Stderr, "gridbench: -sn: %s takes a single federation width\n", *which)
			os.Exit(2)
		}
	}

	// The paper's figures stay pinned to the Grid5000 inventory; -grid
	// steers the beyond-the-paper families (conc, scale).
	opts := exp.DefaultOptions(*seed)
	opts.Shards = *shards
	topoOpts := opts
	topoOpts.Topology = topo
	if len(snAxis) == 1 {
		topoOpts.Supernodes = snAxis[0]
	}
	// The duration flags all accept bare seconds ("600") or Go
	// durations ("10m"), matching the -mtbf axis syntax.
	durFlag := func(name, v string) time.Duration {
		d, err := parseDuration1(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -%s: %v\n", name, err)
			os.Exit(2)
		}
		return d
	}
	// One fault model feeds the open, churn and nemesis families:
	// -faults' network clauses (nemesis) and the crash shape that -mtbf
	// arms; each family sets its own MTBF.
	var fm faults.Config
	if *which == "nemesis" {
		if fm, err = faults.ParseFaultSpec(*faultsSpec); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	if *mtbf != "" && (*which == "open" || *which == "churn" || *which == "nemesis") {
		distKind, err := faults.ParseDistKind(*dist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -dist: %v\n", err)
			os.Exit(2)
		}
		fm.MTTR, fm.UpDist, fm.DownDist, fm.WeibullShape = durFlag("mttr", *mttr), distKind, distKind, *shape
		fm.SiteMTBF, fm.SiteMTTR = durFlag("sitemtbf", *siteMTBF), durFlag("sitemttr", *siteMTTR)
	}
	run := func(name string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs wall]\n\n", name, time.Since(start).Seconds())
	}

	all := *which == "all"
	if all || *which == "table1" {
		run("table1", func() error {
			if csv {
				fmt.Print(exp.Table1CSV())
			} else {
				fmt.Print(exp.RenderTable1())
			}
			return nil
		})
	}
	if all || *which == "fig2" {
		run("fig2", func() error {
			pts, err := exp.Fig2(opts, nil)
			if err != nil {
				return err
			}
			if csv {
				fmt.Print(exp.SitePointsCSV(pts))
			} else {
				fmt.Print(exp.RenderSitePoints("Figure 2: concentrate — allocated hosts/cores per site", pts))
			}
			return nil
		})
	}
	if all || *which == "fig3" {
		run("fig3", func() error {
			pts, err := exp.Fig3(opts, nil)
			if err != nil {
				return err
			}
			if csv {
				fmt.Print(exp.SitePointsCSV(pts))
			} else {
				fmt.Print(exp.RenderSitePoints("Figure 3: spread — allocated hosts/cores per site", pts))
			}
			return nil
		})
	}
	if all || *which == "fig4ep" {
		run("fig4ep", func() error {
			pts, err := exp.Fig4EP(opts, nil, *workers)
			if err != nil {
				return err
			}
			if csv {
				fmt.Print(exp.TimePointsCSV(pts))
			} else {
				fmt.Print(exp.RenderTimePoints("Figure 4 (left): EP CLASS B total time", pts))
			}
			return nil
		})
	}
	if all || *which == "fig4is" {
		run("fig4is", func() error {
			pts, err := exp.Fig4IS(opts, nil, *workers)
			if err != nil {
				return err
			}
			if csv {
				fmt.Print(exp.TimePointsCSV(pts))
			} else {
				fmt.Print(exp.RenderTimePoints("Figure 4 (right): IS CLASS B total time", pts))
			}
			return nil
		})
	}
	if *which == "conc" {
		ks, err := parseKs(*jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -jobs: %v\n", err)
			os.Exit(2)
		}
		cfg := exp.ConcurrentConfig{N: *n, R: *r}
		for _, strategy := range strategies {
			strategy := strategy
			run("conc/"+strategy.String(), func() error {
				pts, err := exp.ConcurrentSweep(topoOpts, strategy, ks, cfg, *workers)
				if err != nil {
					return err
				}
				if csv {
					fmt.Print(exp.ConcurrentPointsCSV(pts))
				} else {
					fmt.Print(exp.RenderConcurrentPoints(
						fmt.Sprintf("Concurrent jobs — %s, n=%d r=%d", strategy, *n, *r), pts))
				}
				return nil
			})
		}
		return
	}
	if *which == "scale" {
		var hostCounts []int
		if *hosts != "" {
			var err error
			if hostCounts, err = parseKs(*hosts); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -hosts: %v\n", err)
				os.Exit(2)
			}
		}
		run("scale", func() error {
			pts, err := exp.ScaleSweep(opts, exp.ScaleConfig{
				Base:       topo,
				Strategies: strategies,
				HostCounts: hostCounts,
				Supernodes: snAxis,
				N:          *n,
				R:          *r,
			}, *workers)
			if err != nil {
				return err
			}
			federated := false
			for _, p := range pts {
				if p.SN > 1 {
					federated = true
				}
			}
			switch {
			case csv && (federated || len(snAxis) > 1):
				fmt.Print(exp.FederationPointsCSV(pts))
			case csv:
				fmt.Print(exp.ScalePointsCSV(pts))
			default:
				fmt.Print(exp.RenderScalePoints(
					fmt.Sprintf("Scale sweep — %s, n=%d r=%d", topo, *n, *r), pts))
			}
			return nil
		})
		return
	}
	if *which == "open" {
		spec, err := workload.ParseArrivalSpec(*arrival)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -arrival: %v\n", err)
			os.Exit(2)
		}
		if *duration == "" {
			fmt.Fprintf(os.Stderr, "gridbench: -exp open needs -duration (e.g. -duration 2h)\n")
			os.Exit(2)
		}
		durationD := durFlag("duration", *duration)
		// "auto" keeps the duration/10 transient cut; an explicit value —
		// including 0 — means exactly that value.
		warmupD := exp.WarmupAuto
		if *warmup != "auto" {
			warmupD = durFlag("warmup", *warmup)
		}
		var deadlines []float64
		if *deadline != "" {
			if deadlines, err = parseFloats(*deadline); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -deadline: %v\n", err)
				os.Exit(2)
			}
		}
		cfg := exp.OpenConfig{
			Base:            topo,
			Strategies:      strategies,
			Arrival:         spec,
			Tenants:         *tenants,
			TenantSkew:      *skew,
			PriorityLevels:  *priLevels,
			Duration:        durationD,
			Warmup:          warmupD,
			R:               *r,
			MaxSubmissions:  *maxSubs,
			Workers:         *inflight,
			NMin:            *nMin,
			NMax:            *nMax,
			DurMin:          *durMin,
			DurMax:          *durMax,
			QuotaRate:       *quota,
			QuotaBurst:      *quotaBurst,
			Preempt:         *preempt,
			DeadlineFactors: deadlines,
		}
		// A single -mtbf value composes host churn with the open workload.
		if *mtbf != "" {
			cfg.Faults = fm
			cfg.Faults.MTBF = durFlag("mtbf", *mtbf)
			cfg.Detect = durFlag("detect", *detect)
		}
		run("open", func() error {
			pts, err := exp.OpenSweep(topoOpts, cfg, *workers)
			if err != nil {
				return err
			}
			if csv {
				fmt.Print(exp.OpenPointsCSV(pts))
			} else {
				fmt.Print(exp.RenderOpenPoints(
					fmt.Sprintf("Open-system steady state — %s, %s, %d tenants, %v horizon",
						topo, spec, *tenants, durationD), pts))
			}
			return nil
		})
		return
	}
	if *which == "churn" || *which == "nemesis" {
		// Churn is the nemesis sweep with no network faults: one config,
		// one code path; only the preset's axes differ.
		churnPreset := *which == "churn"
		cfg := exp.NemesisConfig{
			Base:       topo,
			N:          *n,
			Jobs:       *cjobs,
			JobSeconds: *dur,
			Detect:     durFlag("detect", *detect),
			Faults:     fm,
		}
		if churnPreset {
			mtbfs, err := parseDurations(*mtbf)
			if err != nil || len(mtbfs) == 0 || slices.Min(mtbfs) <= 0 {
				fmt.Fprintf(os.Stderr, "gridbench: -mtbf: need a comma-separated axis of positive durations like 600,1800,3600 (%v)\n", err)
				os.Exit(2)
			}
			if cfg.Rs, err = parseKs(*rAxis); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -R: %v\n", err)
				os.Exit(2)
			}
			cfg.MTBFs = mtbfs
			cfg.Strategies = strategies
			cfg.Losses = []float64{0}
			cfg.PartDurs = []time.Duration{0}
			cfg.RPCRetries = -1 // the churn family never arms the retry layer
		} else {
			if *lossAxis != "" {
				if cfg.Losses, err = parseFloats(*lossAxis); err != nil {
					fmt.Fprintf(os.Stderr, "gridbench: -loss: %v\n", err)
					os.Exit(2)
				}
			} else if fm.Loss > 0 {
				cfg.Losses = []float64{fm.Loss}
			}
			if *partDur != "" {
				if cfg.PartDurs, err = parseDurations(*partDur); err != nil {
					fmt.Fprintf(os.Stderr, "gridbench: -partdur: %v\n", err)
					os.Exit(2)
				}
			} else if fm.PartMTBF > 0 {
				cfg.PartDurs = []time.Duration{fm.PartMTTR}
			}
			cfg.Strategies = strategies[:1]
			cfg.Rs = []int{*r}
			cfg.RPCRetries = *rpcRetries
			cfg.BreakerThreshold = *breaker
			// A single -mtbf value composes host churn, as in -exp open.
			if *mtbf != "" {
				cfg.MTBFs = []time.Duration{durFlag("mtbf", *mtbf)}
			}
		}
		run(*which, func() error {
			pts, err := exp.NemesisSweep(topoOpts, cfg, *workers)
			if err != nil {
				return err
			}
			switch {
			case churnPreset && csv:
				fmt.Print(exp.ChurnPointsCSV(pts))
			case churnPreset:
				fmt.Print(exp.RenderChurnPoints(
					fmt.Sprintf("Churn sweep — %s, n=%d, %d jobs/point, %gs jobs, mttr=%s",
						topo, *n, *cjobs, *dur, cfg.Faults.MTTR), pts))
			case csv:
				fmt.Print(exp.NemesisPointsCSV(pts))
				if len(pts) > 0 && pts[0].SN > 1 {
					fmt.Println()
					fmt.Print(exp.NemesisFederationCSV(pts))
				}
			default:
				fmt.Print(exp.RenderNemesisPoints(
					fmt.Sprintf("Network nemesis — %s, n=%d r=%d, %d jobs/point, %gs jobs",
						topo, *n, *r, *cjobs, *dur), pts))
			}
			return nil
		})
		return
	}
	if *which == "estimators" {
		run("estimators", func() error {
			pts, err := exp.EstimatorStudy(opts, nil, 4)
			if err != nil {
				return err
			}
			fmt.Println("Estimator study: booking-order quality after 4 probe rounds")
			fmt.Printf("%-8s %12s\n", "kind", "kendall-tau")
			for _, p := range pts {
				fmt.Printf("%-8s %12.4f\n", p.Kind, p.Tau)
			}
			return nil
		})
		return
	}
	if !all && *which != "table1" && *which != "fig2" && *which != "fig3" &&
		*which != "fig4ep" && *which != "fig4is" {
		fmt.Fprintf(os.Stderr, "gridbench: unknown experiment %q (try also: conc, scale, churn, open, nemesis, estimators)\n", *which)
		os.Exit(2)
	}
}

// parseDuration1 parses one duration value; bare numbers are seconds
// ("600"), Go durations work too ("10m").
func parseDuration1(s string) (time.Duration, error) {
	out, err := parseDurations(s)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("want one duration, got %q", s)
	}
	return out[0], nil
}

// parseDurations parses a comma-separated duration axis; bare numbers
// are seconds ("600,1800"), Go durations work too ("10m,30m").
func parseDurations(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if secs, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, time.Duration(secs*float64(time.Second)))
			continue
		}
		d, err := time.ParseDuration(f)
		if err != nil {
			return nil, fmt.Errorf("bad duration %q", f)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseStrategies resolves the -a flag: "all" (or empty) expands to
// every registered strategy; otherwise each comma-separated name must be
// registered.
func parseStrategies(s string) ([]core.Strategy, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return core.Strategies(), nil
	}
	var out []core.Strategy
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		st, err := core.ParseStrategy(f)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no strategies")
	}
	return out, nil
}

// parseFloats parses the -loss axis ("0,0.1,0.3").
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return out, nil
}

// parseKs parses the -jobs axis ("1,2,4,8").
func parseKs(s string) ([]int, error) {
	var ks []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, err := strconv.Atoi(f)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad K value %q", f)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("no K values")
	}
	return ks, nil
}
