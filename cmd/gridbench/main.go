package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"p2pmpi/internal/vtime"
	"p2pmpi/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// The kinds of experiment: which worlds -grid and -sn may pick, and
// what -exp all runs.
const (
	figure  = iota // a figure of the paper: grid5000, one supernode; run by -exp all
	study          // pinned like a figure, run by name only
	family         // beyond the paper: any -grid, one -sn width
	snSweep        // a family whose -sn is an axis
)

// experiment is one row of the -exp table.
type experiment struct {
	name string
	kind int
	// plan turns the flags into the experiment's steps; a bad flag
	// value goes to p.err.
	plan func(p *params) []step
}

// step is one timed unit of an experiment: it measures and builds one
// sheet, which -format prints as CSV or as a table under title. An
// empty name is the experiment's.
type step struct {
	name, title string
	run         func() (exp.Sheet, error)
}

// experiments lists every -exp value; the paper's figures come first,
// in the order -exp all runs them.
var experiments = []experiment{
	{"table1", figure, func(*params) []step {
		return []step{{title: "Table 1. Characteristics of available computing resources",
			run: func() (exp.Sheet, error) { return exp.Table1Sheet(), nil }}}
	}},
	{"fig2", figure, func(p *params) []step {
		return []step{measure("Figure 2: concentrate — allocated hosts/cores per site", exp.SiteSheet,
			func() ([]exp.SitePoint, error) { return exp.Fig2(p.opts) })}
	}},
	{"fig3", figure, func(p *params) []step {
		return []step{measure("Figure 3: spread — allocated hosts/cores per site", exp.SiteSheet,
			func() ([]exp.SitePoint, error) { return exp.Fig3(p.opts) })}
	}},
	{"fig4ep", figure, func(p *params) []step {
		return []step{measure("Figure 4 (left): EP CLASS B total time", exp.TimeSheet,
			func() ([]exp.TimePoint, error) { return exp.Fig4EP(p.opts, p.workers) })}
	}},
	{"fig4is", figure, func(p *params) []step {
		return []step{measure("Figure 4 (right): IS CLASS B total time", exp.TimeSheet,
			func() ([]exp.TimePoint, error) { return exp.Fig4IS(p.opts, p.workers) })}
	}},
	{"conc", family, planConc},
	{"scale", snSweep, planScale},
	{"churn", family, planChurn},
	{"open", family, planOpen},
	{"nemesis", family, planNemesis},
	{"estimators", study, planEstimators},
}

// names lists, in table order, the paper's figures, the other
// experiments, and the families among those.
func names() (figures, others, families []string) {
	for _, e := range experiments {
		if e.kind == figure {
			figures = append(figures, e.name)
		} else {
			others = append(others, e.name)
		}
		if e.kind >= family {
			families = append(families, e.name)
		}
	}
	return figures, others, families
}

// params holds the flag values and what run derives from them.
type params struct {
	which, format, jobs, gridSpec, alloc, hosts, sn, mtbf, mttr, rAxis, detect string
	dist, siteMTBF, siteMTTR, arrival, duration, warmup, deadline, faultsSpec  string
	lossAxis, partDur, cpuProfile, memProfile                                  string
	n, r, workers, shards, cjobs, tenants, priLevels, maxSubs, nMin, nMax      int
	inflight, rpcRetries, breaker                                              int
	dur, shape, skew, durMin, durMax, quota, quotaBurst                        float64
	seed                                                                       int64
	preempt                                                                    bool

	topo       grid.TopologySpec
	strategies []core.Strategy
	snAxis     []int
	opts       exp.Options // the paper's world: grid5000, one supernode
	topoOpts   exp.Options // the families' world: -grid, and -sn when it is one width
	err        error       // the first bad flag value
}

func run(args []string, stdout, stderr io.Writer) int {
	p := new(params)
	figures, others, families := names()
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&p.which, "exp", "all", "experiment: "+strings.Join(slices.Concat(figures, []string{"all"}, others), "|"))
	fs.Int64Var(&p.seed, "seed", 42, "simulation seed")
	fs.StringVar(&p.format, "format", "table", "output format: table|csv")
	fs.StringVar(&p.jobs, "jobs", "1,2,4,8,16", "conc: comma-separated K values (concurrent jobs per point)")
	fs.IntVar(&p.n, "n", 32, "conc/scale/churn/nemesis: processes per job")
	fs.IntVar(&p.r, "r", 1, "conc/scale/nemesis: replication degree per job")
	fs.StringVar(&p.gridSpec, "grid", "grid5000", "topology: grid5000 or synth:S=12,H=400,C=2,seed=7,rttmin=5ms,rttmax=25ms")
	fs.StringVar(&p.alloc, "a", "all", "conc/scale/churn: strategies, \"all\" or comma-separated names from: "+strings.Join(core.Names(), "|"))
	fs.StringVar(&p.hosts, "hosts", "", "scale: comma-separated world sizes (hosts); default: the -grid spec's own size")
	fs.StringVar(&p.sn, "sn", "", "supernode-federation width K; scale takes a comma-separated axis (e.g. 1,4,16), conc/churn a single value; default: the -grid spec's sn value (1)")
	fs.IntVar(&p.workers, "workers", exp.DefaultWorkers(), "pool width for fig4, conc, scale, churn and nemesis sweeps (independent worlds)")
	fs.IntVar(&p.shards, "shards", 1, "shard count of each world's virtual-time domain: partition sites onto N event loops synchronized by lookahead barriers (1 = one shard, every window inline; output is byte-identical for any value). More shards pay off only with cores to spare: on 2 cores a 6 400-host world runs slower sharded than with 1")
	fs.StringVar(&p.mtbf, "mtbf", "", "churn: comma-separated per-host MTBF axis (seconds or Go durations, e.g. 600,1800 or 10m,30m); open/nemesis: one value composes host churn")
	fs.StringVar(&p.mttr, "mttr", "60", "churn, open/nemesis with -mtbf: mean per-host repair time (seconds or Go duration)")
	fs.StringVar(&p.rAxis, "R", "1,2", "churn: comma-separated replication-degree axis")
	fs.IntVar(&p.cjobs, "cjobs", 8, "churn/nemesis: jobs per sweep point")
	fs.Float64Var(&p.dur, "dur", 120, "churn/nemesis: per-job spin duration (virtual seconds, the failure-free baseline)")
	fs.StringVar(&p.detect, "detect", "10", "churn/nemesis: failure-detector probe period (seconds or Go duration)")
	fs.StringVar(&p.dist, "dist", "exp", "churn, open/nemesis with -mtbf: lifetime distribution, exp|weibull")
	fs.Float64Var(&p.shape, "shape", 0.7, "churn, open/nemesis with -mtbf: Weibull shape (with -dist weibull)")
	fs.StringVar(&p.siteMTBF, "sitemtbf", "0", "churn, open/nemesis with -mtbf: mean time between correlated whole-site outages (seconds or Go duration; 0 disables)")
	fs.StringVar(&p.siteMTTR, "sitemttr", "0", "churn, open/nemesis with -mtbf: mean whole-site outage duration (seconds or Go duration; default sitemtbf/20)")
	fs.StringVar(&p.arrival, "arrival", "poisson:rate=0.01", "open: arrival process, poisson:rate=R or diurnal:peak=P,trough=T[,period=D,maintevery=D,maintdur=D]")
	fs.IntVar(&p.tenants, "tenants", 1, "open: submitting tenants")
	fs.Float64Var(&p.skew, "skew", 0, "open: Zipf skew of the tenants' rate shares (0 = equal)")
	fs.IntVar(&p.priLevels, "prilevels", 1, "open: admission priority levels stratified over the tenants")
	fs.StringVar(&p.duration, "duration", "", "open: arrival horizon (seconds or Go duration, required)")
	fs.StringVar(&p.warmup, "warmup", "auto", "open: leading transient excluded from statistics (auto = duration/10, 0 = none)")
	fs.IntVar(&p.maxSubs, "maxsubs", 0, "open: cap the submission trace per point (0 = uncapped)")
	fs.IntVar(&p.nMin, "nmin", 0, "open: minimum processes per submission (0 = workload default)")
	fs.IntVar(&p.nMax, "nmax", 0, "open: maximum processes per submission (0 = workload default)")
	fs.Float64Var(&p.durMin, "durmin", 0, "open: minimum job service time (virtual seconds; 0 = workload default)")
	fs.Float64Var(&p.durMax, "durmax", 0, "open: maximum job service time (virtual seconds; 0 = workload default)")
	fs.Float64Var(&p.quota, "quota", 0, "open: per-tenant quota accrual rate (slot-seconds per virtual second; 0 disables quotas)")
	fs.Float64Var(&p.quotaBurst, "quotaburst", 0, "open: quota bucket cap (slot-seconds; 0 = one hour at -quota)")
	fs.BoolVar(&p.preempt, "preempt", false, "open: let starved in-budget higher-priority jobs evict over-budget lower-priority running jobs")
	fs.IntVar(&p.inflight, "inflight", 0, "open: scheduler worker pool — max concurrent in-flight jobs per point (0 = default 8; size to arrival-rate × service time or the backlog grows)")
	fs.StringVar(&p.deadline, "deadline", "", "open: comma-separated per-priority-class deadline factors, highest class first (deadline = arrival + factor×service; last entry reused; empty disables SLO tracking)")
	fs.StringVar(&p.faultsSpec, "faults", "", "nemesis: fault-model spec (part:mtbf=10m,split=1;link:loss=0.1,mult=2;gray:frac=0.1,mtbf=5m;dup:p=0.01); -loss/-partdur override its link-loss and partition-duration values as swept axes")
	fs.StringVar(&p.lossAxis, "loss", "", "nemesis: comma-separated cross-site drop-probability axis (e.g. 0,0.1,0.3)")
	fs.StringVar(&p.partDur, "partdur", "", "nemesis: comma-separated mean partition duration axis (seconds or Go durations; 0 = no partitions at that point)")
	fs.IntVar(&p.rpcRetries, "rpcretries", 2, "nemesis: RPC robustness-layer retry budget per exchange (-1 disables the layer)")
	fs.IntVar(&p.breaker, "breaker", 0, "nemesis: per-supernode circuit-breaker threshold (consecutive failures; 0 disables)")
	fs.StringVar(&p.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (pprof format)")
	fs.StringVar(&p.memProfile, "memprofile", "", "write an allocation profile to this file on exit (pprof format)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	selected := slices.DeleteFunc(slices.Clone(experiments), func(e experiment) bool {
		return e.name != p.which && (p.which != "all" || e.kind != figure)
	})
	if len(selected) == 0 {
		p.check("exp", fmt.Errorf("unknown experiment %q (try also: %s)", p.which, strings.Join(others, ", ")))
	}
	var err error
	p.topo, err = grid.ParseTopologySpec(p.gridSpec)
	p.check("grid", err)
	if s := strings.TrimSpace(p.alloc); s == "" || s == "all" {
		p.strategies = core.Strategies()
	} else {
		p.strategies = list(p, "a", s, core.ParseStrategy)
	}
	if p.sn != "" {
		p.snAxis = list(p, "sn", p.sn, parseK)
	}
	familyList := strings.Join(families[:len(families)-1], ", ") + " and " + families[len(families)-1]
	for _, e := range selected {
		switch {
		case p.topo.IsSynthetic() && e.kind < family:
			p.check("grid", fmt.Errorf("%s only applies to -exp %s; the paper figures are pinned to grid5000", p.topo, familyList))
		case p.sn != "" && e.kind < family:
			p.check("sn", fmt.Errorf("only applies to -exp %s; the paper figures are pinned to the single supernode", familyList))
		case p.sn != "" && e.kind != snSweep && len(p.snAxis) != 1:
			p.check("sn", fmt.Errorf("%s takes a single federation width", e.name))
		}
	}

	// The paper's figures stay pinned to the Grid5000 inventory; -grid
	// steers the beyond-the-paper families.
	p.opts = exp.DefaultOptions(p.seed)
	p.opts.Shards = p.shards
	p.topoOpts = p.opts
	p.topoOpts.Topology = p.topo
	if len(p.snAxis) == 1 {
		p.topoOpts.Supernodes = p.snAxis[0]
	}
	var steps []step
	for _, e := range selected {
		if p.err != nil {
			break // a plan may read what a bad flag left unset
		}
		for _, s := range e.plan(p) {
			s.name = cmp.Or(s.name, e.name)
			steps = append(steps, s)
		}
	}
	if p.err != nil {
		fmt.Fprintf(stderr, "gridbench: %v\n", p.err)
		return 2
	}

	// Profiling hooks: hot-path hunts run the very binary that produces
	// the figures instead of an ad-hoc test rig, so the profile covers
	// world boot, the sweep pool and rendering exactly as shipped.
	if p.cpuProfile != "" {
		f, err := os.Create(p.cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if p.memProfile != "" {
		defer func() {
			f, err := os.Create(p.memProfile)
			if err == nil {
				runtime.GC() // settle the heap so the profile reflects live data
				err = pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(stderr, "gridbench: -memprofile: %v\n", err)
			}
		}()
	}
	for _, s := range steps {
		start := time.Now()
		sheet, err := s.run()
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: %s: %v\n", s.name, err)
			return 1
		}
		out := sheet.Table(s.title)
		if p.format == "csv" {
			out = sheet.CSV()
		}
		fmt.Fprint(stdout, out)
		fmt.Fprintf(stderr, "[%s done in %.1fs wall]\n\n", s.name, time.Since(start).Seconds())
	}
	return 0
}

// measure is a step that runs sweep and builds the sheet of its points.
func measure[P any](title string, sheet func([]P) exp.Sheet, sweep func() ([]P, error)) step {
	return step{title: title, run: func() (exp.Sheet, error) {
		pts, err := sweep()
		return sheet(pts), err
	}}
}

// planConc runs one concurrent-jobs sweep per strategy.
func planConc(p *params) []step {
	ks := list(p, "jobs", p.jobs, parseK)
	cfg := exp.ConcurrentConfig{N: p.n, R: p.r}
	var steps []step
	for _, st := range p.strategies {
		s := measure(fmt.Sprintf("Concurrent jobs — %s, n=%d r=%d", st, p.n, p.r), exp.ConcurrentSheet,
			func() ([]exp.ConcurrentPoint, error) { return exp.ConcurrentSweep(p.topoOpts, st, ks, cfg, p.workers) })
		s.name = "conc/" + st.String()
		steps = append(steps, s)
	}
	return steps
}

func planScale(p *params) []step {
	cfg := exp.ScaleConfig{Base: p.topo, Strategies: p.strategies, Supernodes: p.snAxis, N: p.n, R: p.r}
	if p.hosts != "" {
		cfg.HostCounts = list(p, "hosts", p.hosts, parseK)
	}
	sheet := func(pts []exp.ScalePoint) exp.Sheet {
		if len(p.snAxis) > 1 || slices.ContainsFunc(pts, func(pt exp.ScalePoint) bool { return pt.SN > 1 }) {
			return exp.FederationSheet(pts)
		}
		return exp.ScaleSheet(pts)
	}
	return []step{measure(fmt.Sprintf("Scale sweep — %s, n=%d r=%d", p.topo, p.n, p.r), sheet,
		func() ([]exp.ScalePoint, error) { return exp.ScaleSweep(p.opts, cfg, p.workers) })}
}

func planOpen(p *params) []step {
	spec, err := workload.ParseArrivalSpec(p.arrival)
	p.check("arrival", err)
	if p.duration == "" {
		p.check("duration", errors.New("-exp open needs it (e.g. -duration 2h)"))
	}
	cfg := exp.OpenConfig{
		Base:           p.topo,
		Strategies:     p.strategies,
		Arrival:        spec,
		Tenants:        p.tenants,
		TenantSkew:     p.skew,
		PriorityLevels: p.priLevels,
		Duration:       p.dur1("duration", p.duration),
		Warmup:         exp.WarmupAuto,
		R:              p.r,
		MaxSubmissions: p.maxSubs,
		Workers:        p.inflight,
		NMin:           p.nMin,
		NMax:           p.nMax,
		DurMin:         p.durMin,
		DurMax:         p.durMax,
		QuotaRate:      p.quota,
		QuotaBurst:     p.quotaBurst,
		Preempt:        p.preempt,
	}
	// "auto" keeps the duration/10 transient cut; an explicit value —
	// including 0 — means exactly that value.
	if p.warmup != "auto" {
		cfg.Warmup = p.dur1("warmup", p.warmup)
	}
	if p.deadline != "" {
		cfg.DeadlineFactors = list(p, "deadline", p.deadline, parseFloat)
	}
	// A single -mtbf value composes host churn with the open workload.
	if p.mtbf != "" {
		cfg.Faults = p.crashes(faults.Config{})
		cfg.Faults.MTBF = p.dur1("mtbf", p.mtbf)
		cfg.Detect = p.dur1("detect", p.detect)
	}
	title := fmt.Sprintf("Open-system steady state — %s, %s, %d tenants, %v horizon", p.topo, spec, p.tenants, cfg.Duration)
	return []step{measure(title, exp.OpenSheet,
		func() ([]exp.OpenPoint, error) { return exp.OpenSweep(p.topoOpts, cfg, p.workers) })}
}

// crashes gives fm the host-crash shape of -mttr, -dist, -shape,
// -sitemtbf and -sitemttr; each family sets its own MTBF.
func (p *params) crashes(fm faults.Config) faults.Config {
	kind, err := faults.ParseDistKind(p.dist)
	p.check("dist", err)
	fm.MTTR, fm.UpDist, fm.DownDist, fm.WeibullShape = p.dur1("mttr", p.mttr), kind, kind, p.shape
	fm.SiteMTBF, fm.SiteMTTR = p.dur1("sitemtbf", p.siteMTBF), p.dur1("sitemttr", p.siteMTTR)
	return fm
}

// nemesis is the config both presets of exp.NemesisSweep, churn and
// nemesis, start from.
func (p *params) nemesis(fm faults.Config) exp.NemesisConfig {
	return exp.NemesisConfig{Base: p.topo, N: p.n, Jobs: p.cjobs, JobSeconds: p.dur,
		Detect: p.dur1("detect", p.detect), Faults: fm}
}

// planChurn is the nemesis sweep with no network faults and the retry
// layer off, swept over MTBF, R and every -a strategy.
func planChurn(p *params) []step {
	cfg := p.nemesis(p.crashes(faults.Config{}))
	const axis = "a comma-separated axis of positive durations like 600,1800,3600"
	if p.mtbf == "" {
		p.check("mtbf", errors.New("-exp churn needs "+axis))
	}
	if cfg.MTBFs = list(p, "mtbf", p.mtbf, vtime.ParseDuration); len(cfg.MTBFs) > 0 && slices.Min(cfg.MTBFs) <= 0 {
		p.check("mtbf", errors.New("need "+axis))
	}
	cfg.Rs, cfg.Strategies = list(p, "R", p.rAxis, parseK), p.strategies
	cfg.Losses, cfg.PartDurs = []float64{0}, []time.Duration{0}
	cfg.RPCRetries = -1
	title := fmt.Sprintf("Churn sweep — %s, n=%d, %d jobs/point, %gs jobs, mttr=%s", p.topo, p.n, p.cjobs, p.dur, cfg.Faults.MTTR)
	return []step{measure(title, exp.ChurnSheet,
		func() ([]exp.NemesisPoint, error) { return exp.NemesisSweep(p.topoOpts, cfg, p.workers) })}
}

// planNemesis sweeps -loss and -partdur for the first -a strategy.
func planNemesis(p *params) []step {
	fm, err := faults.ParseFaultSpec(p.faultsSpec)
	p.check("faults", err)
	if p.mtbf != "" {
		fm = p.crashes(fm)
	}
	cfg := p.nemesis(fm)
	if p.lossAxis != "" {
		cfg.Losses = list(p, "loss", p.lossAxis, parseFloat)
	} else if fm.Loss > 0 {
		cfg.Losses = []float64{fm.Loss}
	}
	if p.partDur != "" {
		cfg.PartDurs = list(p, "partdur", p.partDur, vtime.ParseDuration)
	} else if fm.PartMTBF > 0 {
		cfg.PartDurs = []time.Duration{fm.PartMTTR}
	}
	cfg.Strategies, cfg.Rs = p.strategies[:1], []int{p.r}
	cfg.RPCRetries, cfg.BreakerThreshold = p.rpcRetries, p.breaker
	// A single -mtbf value composes host churn, as in -exp open.
	if p.mtbf != "" {
		cfg.MTBFs = []time.Duration{p.dur1("mtbf", p.mtbf)}
	}
	sheet := func(pts []exp.NemesisPoint) exp.Sheet {
		s := exp.NemesisSheet(pts)
		if len(pts) > 0 && pts[0].SN > 1 { // the federation columns follow as a second block
			s = append(append(s, nil), exp.NemesisFederationSheet(pts)...)
		}
		return s
	}
	title := fmt.Sprintf("Network nemesis — %s, n=%d r=%d, %d jobs/point, %gs jobs", p.topo, p.n, p.r, p.cjobs, p.dur)
	return []step{measure(title, sheet,
		func() ([]exp.NemesisPoint, error) { return exp.NemesisSweep(p.topoOpts, cfg, p.workers) })}
}

// planEstimators runs the latency-estimator ablation.
func planEstimators(p *params) []step {
	return []step{estimatorStep(func() ([]exp.EstimatorPoint, error) { return exp.EstimatorStudy(p.opts, nil, 4) })}
}

// estimatorStep builds the sheet of the points study returns.
func estimatorStep(study func() ([]exp.EstimatorPoint, error)) step {
	return measure("Estimator study: booking-order quality after 4 probe rounds", exp.EstimatorSheet, study)
}

// check records err as the bad value of flag name, unless an earlier
// flag already failed.
func (p *params) check(name string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("-%s: %w", name, err)
	}
}

// list parses the comma-separated value s of flag name with parse, one
// element at a time; a bad element or an empty list goes to p.err.
func list[T any](p *params, name, s string, parse func(string) (T, error)) []T {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			p.check(name, err)
			return nil
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		p.check(name, errors.New("no values"))
	}
	return out
}

// dur1 parses the single duration of flag name.
func (p *params) dur1(name, s string) time.Duration {
	d, err := vtime.ParseDuration(strings.TrimSpace(s))
	p.check(name, err)
	return d
}

// parseFloat reads a non-negative number (-loss, -deadline).
func parseFloat(f string) (float64, error) {
	v, err := strconv.ParseFloat(f, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad value %q", f)
	}
	return v, nil
}

// parseK reads a positive count (-jobs, -hosts, -sn, -R).
func parseK(f string) (int, error) {
	k, err := strconv.Atoi(f)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bad K value %q", f)
	}
	return k, nil
}
