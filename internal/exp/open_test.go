package exp

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/sched"
	"p2pmpi/internal/stats"
	"p2pmpi/internal/workload"
)

func openGoldenConfig(t *testing.T) OpenConfig {
	t.Helper()
	return OpenConfig{
		Base:       goldenBase(t),
		Strategies: []core.Strategy{core.Concentrate, core.Spread},
		Arrival: workload.ArrivalSpec{
			Kind: workload.ArrivalDiurnal, Peak: 0.05, Trough: 0.01,
			Period: 30 * time.Minute, MaintEvery: 15 * time.Minute, MaintDur: 90 * time.Second,
		},
		Tenants:        3,
		TenantSkew:     1,
		PriorityLevels: 2,
		Duration:       40 * time.Minute,
		// WarmupAuto pins the historical Duration/10 transient cut (an
		// unset Warmup now means "measure from t=0").
		Warmup: WarmupAuto,
		DurMin: 15, DurMax: 120, // short jobs keep the pump cheap
		NMin: 2, NMax: 8,
		Workers: 4,
		// Deadlines are pure measurement — derived from draws the trace
		// already makes — so pinning SLO attainment and tardiness here
		// costs nothing in golden churn.
		DeadlineFactors: []float64{8, 4},
	}
}

// TestGoldenOpenTrace: the open-system family across worker counts,
// shard counts and federation widths — eight runs, one committed byte
// string. The whole pipeline is pinned: the workload trace, the
// priority admission order, the t-digest percentile state, the
// fairness index.
func TestGoldenOpenTrace(t *testing.T) {
	cfg := openGoldenConfig(t)
	var first string
	var firstLabel string
	for _, sn := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				opts := DefaultOptions(42)
				opts.Supernodes = sn
				opts.Shards = shards
				pts, err := OpenSweep(opts, cfg, workers)
				if err != nil {
					t.Fatalf("sn=%d shards=%d workers=%d: %v", sn, shards, workers, err)
				}
				csv := OpenSheet(pts).CSV()
				label := fmt.Sprintf("sn=%d shards=%d workers=%d", sn, shards, workers)
				if first == "" {
					first, firstLabel = csv, label
					continue
				}
				if csv != first {
					t.Fatalf("%s diverged from %s:\n--- first ---\n%s--- this run ---\n%s",
						label, firstLabel, first, csv)
				}
			}
		}
	}
	goldenCompare(t, "golden_open.csv", first)
}

// TestOpenWarmupSemantics pins the warm-up sentinel contract: only
// WarmupAuto picks the Duration/10 default. An explicit zero used to be
// silently rewritten to Duration/10 — the zero value was
// indistinguishable from "unset" — which made a deliberate
// measure-from-t=0 sweep impossible to request.
func TestOpenWarmupSemantics(t *testing.T) {
	for _, c := range []struct {
		name string
		in   time.Duration
		want time.Duration
	}{
		{"auto picks a tenth", WarmupAuto, 6 * time.Minute},
		{"explicit zero means zero", 0, 0},
		{"other negatives mean zero", -5 * time.Second, 0},
		{"explicit value passes through", 90 * time.Second, 90 * time.Second},
	} {
		cfg := OpenConfig{
			Arrival:  workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 1},
			Duration: time.Hour,
			Warmup:   c.in,
		}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Warmup != c.want {
			t.Errorf("%s: warmup = %v, want %v", c.name, cfg.Warmup, c.want)
		}
	}

	// End to end: a zero-warm-up point measures every submission.
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Duration = 10 * time.Minute
	cfg.Warmup = 0
	pt, err := RunOpen(DefaultOptions(42), cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.WarmupSeconds != 0 {
		t.Errorf("point reports warmup %.0fs, want 0", pt.WarmupSeconds)
	}
	if pt.Measured != pt.Submitted {
		t.Errorf("zero warm-up measured %d of %d submissions", pt.Measured, pt.Submitted)
	}
}

// TestOpenLongJobsOutliveTheDefaultDurMax: with DurMin above the
// workload's 1800 s DurMax default and DurMax unset, the generator
// raises DurMax to DurMin, so every job spins 6000 s. Each attempt's
// timeout must follow the bound the generator draws from — a copy of
// the 1800 s default timed every such job out.
func TestOpenLongJobsOutliveTheDefaultDurMax(t *testing.T) {
	cfg := OpenConfig{
		Base:     goldenBase(t),
		Arrival:  workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 0.005},
		Duration: 10 * time.Minute,
		DurMin:   6000,
		NMin:     2, NMax: 4,
	}
	pt, err := RunOpen(DefaultOptions(42), cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Completed == 0 || pt.Failed != 0 {
		t.Fatalf("%d of %d jobs completed, %d failed; want all to complete", pt.Completed, pt.Measured, pt.Failed)
	}
}

// TestOpenSketchVsExact holds the streaming path to the acceptance
// bound: queue-wait P50/P90/P99 from the t-digest must sit within 1%
// relative error of the exact order statistics of the same run
// (absolute floor 50ms for near-zero quantiles).
func TestOpenSketchVsExact(t *testing.T) {
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Duration = 2 * time.Hour
	var exact []float64
	cfg.observe = func(j *sched.Job, sub workload.Submission) {
		if j.Err != nil || j.Result == nil || j.Result.LostRanks() > 0 {
			return
		}
		exact = append(exact, math.Max(0, j.Latency().Seconds()-sub.Seconds))
	}
	pt, err := RunOpen(DefaultOptions(42), cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Completed < 100 {
		t.Fatalf("run too small to compare quantiles: %d completed jobs", pt.Completed)
	}
	if len(exact) != pt.Completed {
		t.Fatalf("observe hook saw %d completions, point says %d", len(exact), pt.Completed)
	}
	sum := stats.Summarize(exact)
	for _, c := range []struct {
		name         string
		sketch, want float64
	}{
		{"wait_p50", pt.WaitP50Seconds, sum.P50},
		{"wait_p90", pt.WaitP90Seconds, sum.P90},
		{"wait_p99", pt.WaitP99Seconds, sum.P99},
	} {
		tol := math.Max(0.01*math.Abs(c.want), 0.05)
		if diff := math.Abs(c.sketch - c.want); diff > tol {
			t.Errorf("%s: sketch %.4f vs exact %.4f (|diff| %.4f > tol %.4f)",
				c.name, c.sketch, c.want, diff, tol)
		}
	}
	if diff := math.Abs(pt.MeanWaitSeconds - sum.Mean); diff > 1e-9*math.Max(1, sum.Mean) {
		t.Errorf("mean wait: stream %.6f vs exact %.6f", pt.MeanWaitSeconds, sum.Mean)
	}
}

// TestOpenChurnShardRace composes the open arrival process with host
// churn — compute hosts and federated supernode hosts dying and
// reviving mid-steady-state — on a 3-shard world under the race
// detector, with the lookahead-safety check armed. Per-job outcomes
// and the rendered point must match the single-shard run byte for
// byte.
func TestOpenChurnShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Arrival = workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 0.02}
	cfg.Duration = 40 * time.Minute
	cfg.R = 2
	cfg.Workers = 2
	cfg.Faults.MTBF = 90 * time.Second
	cfg.Faults.MTTR = 45 * time.Second
	cfg.Detect = 5 * time.Second

	run := func(shards int) (string, []string) {
		c := cfg
		var lines []string
		c.observe = func(j *sched.Job, sub workload.Submission) {
			lines = append(lines, fmt.Sprintf("%d|%d|%d|%s", sub.Seq, sub.Tenant, sub.Priority, jobLine(j)))
		}
		opts := DefaultOptions(99)
		opts.Supernodes = 4
		opts.Shards = shards
		pt, err := RunOpen(opts, c, core.Spread)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if pt.FailuresInjected < 10 {
			t.Fatalf("shards=%d: churn load too light to mean anything: %d failures",
				shards, pt.FailuresInjected)
		}
		return OpenSheet([]OpenPoint{pt}).CSV(), lines
	}

	seqCSV, seqLines := run(1)
	shCSV, shLines := run(3)
	if shCSV != seqCSV {
		t.Fatalf("open point diverged:\n--- seq ---\n%s--- sharded ---\n%s", seqCSV, shCSV)
	}
	if len(shLines) != len(seqLines) {
		t.Fatalf("job count diverged: %d vs %d", len(seqLines), len(shLines))
	}
	for i := range seqLines {
		if shLines[i] != seqLines[i] {
			t.Fatalf("job %d diverged:\nseq:     %s\nsharded: %s", i, seqLines[i], shLines[i])
		}
	}
}

// TestGoldenOpenSLO pins the SLO-aware multi-tenant tier end to end:
// token-bucket quotas throttling the heavy tenant at admission, the
// preemption primitive checkpoint-killing over-budget running work to
// make room for in-budget jobs, and deadline attainment/tardiness
// folding through the t-digests. One committed byte string across
// worker counts and shard counts — four runs — so quota accrual, victim
// choice and the kill/release path are all deterministic under
// parallel execution.
func TestGoldenOpenSLO(t *testing.T) {
	cfg := openGoldenConfig(t)
	cfg.Arrival = workload.ArrivalSpec{
		Kind: workload.ArrivalWeekly, Peak: 0.1, Trough: 0.025,
		Period: 70 * time.Minute,
	}
	cfg.Duration = 50 * time.Minute
	cfg.NMin, cfg.NMax = 4, 16
	cfg.DurMin, cfg.DurMax = 30, 240
	cfg.Workers = 8 // enough in-flight admission to saturate the 48 procs
	// Inverted skew: premium low-volume tenants hold the high priority
	// class while the bulk batch tenant (tenant 2, lowest priority)
	// carries half the arrival rate — the configuration where quota
	// enforcement and preemption actually bite, since the over-budget
	// tenant's running jobs are outranked by in-budget submitters.
	cfg.TenantSkew = -1
	cfg.QuotaRate = 8
	// A small burst (about one mid-size job) makes budget state move on
	// the test's 50-minute horizon; the default hour of accrual would
	// keep every bucket positive for the whole run.
	cfg.QuotaBurst = 300
	cfg.Preempt = true
	cfg.DeadlineFactors = []float64{6, 3}

	var first, firstLabel string
	var firstPts []OpenPoint
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions(7)
			opts.Supernodes = 4
			opts.Shards = shards
			pts, err := OpenSweep(opts, cfg, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			csv := OpenSheet(pts).CSV()
			label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			if first == "" {
				first, firstLabel, firstPts = csv, label, pts
				continue
			}
			if csv != first {
				t.Fatalf("%s diverged from %s:\n--- first ---\n%s--- this run ---\n%s",
					label, firstLabel, first, csv)
			}
		}
	}
	// The golden is only worth committing if it actually exercises the
	// tier: quotas must throttle, preemption must fire, and deadlines
	// must split into met and missed.
	var preempted int
	var throttled, slo bool
	for _, p := range firstPts {
		preempted += p.Preemptions
		throttled = throttled || p.QuotaThrottleRate > 0
		slo = slo || (p.SLOAttainment > 0 && p.SLOAttainment < 1)
	}
	if preempted == 0 {
		t.Error("no preemptions fired — the golden does not cover the kill path")
	}
	if !throttled {
		t.Error("quota never throttled — the golden does not cover two-class admission")
	}
	if !slo {
		t.Error("SLO attainment degenerate — the golden does not cover deadline metrics")
	}
	goldenCompare(t, "golden_slo.csv", first)
}

// TestOpenPreemptChurnShardRace composes preemption and quotas with
// host churn on a sharded world under the race detector: kills racing
// crashes, revivals and the failure detector. Per-job outcomes and the
// rendered point must match the single-shard run byte for byte — which
// also pins reservation release as exactly-once, since a double or
// dropped release would skew capacity and diverge (or stall) one of the
// runs. RunOpen itself enforces submitted == completed.
func TestOpenPreemptChurnShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	cfg := openGoldenConfig(t)
	cfg.Strategies = []core.Strategy{core.Spread}
	cfg.Arrival = workload.ArrivalSpec{Kind: workload.ArrivalPoisson, Rate: 0.05}
	cfg.Duration = 40 * time.Minute
	cfg.NMin, cfg.NMax = 4, 12
	cfg.DurMin, cfg.DurMax = 30, 240
	cfg.Workers = 8
	// Same inverted-skew shape as TestGoldenOpenSLO: the bulk tenant
	// overdraws its small burst while premium tenants stay in budget
	// and preempt it.
	cfg.TenantSkew = -1
	cfg.QuotaRate = 5
	cfg.QuotaBurst = 300
	cfg.Preempt = true
	// Mild churn: heavy churn makes jobs fail on missing peers before
	// the ledger ever saturates, and preemption only triggers on
	// saturation. ~10% of hosts down keeps the world tight but placeable.
	cfg.Faults.MTBF = 20 * time.Minute
	cfg.Faults.MTTR = 2 * time.Minute
	cfg.Detect = 5 * time.Second

	run := func(shards int) (string, []string, OpenPoint) {
		c := cfg
		var lines []string
		c.observe = func(j *sched.Job, sub workload.Submission) {
			lines = append(lines, fmt.Sprintf("%d|%d|%d|%s", sub.Seq, sub.Tenant, sub.Priority, jobLine(j)))
		}
		opts := DefaultOptions(99)
		opts.Supernodes = 4
		opts.Shards = shards
		pt, err := RunOpen(opts, c, core.Spread)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return OpenSheet([]OpenPoint{pt}).CSV(), lines, pt
	}

	seqCSV, seqLines, seqPt := run(1)
	shCSV, shLines, _ := run(4)
	if seqPt.Preemptions < 1 {
		t.Fatalf("no preemptions under churn: the composition is untested")
	}
	if seqPt.FailuresInjected < 5 {
		t.Fatalf("churn too light to mean anything: %d failures", seqPt.FailuresInjected)
	}
	if shCSV != seqCSV {
		t.Fatalf("open point diverged:\n--- seq ---\n%s--- sharded ---\n%s", seqCSV, shCSV)
	}
	if len(shLines) != len(seqLines) {
		t.Fatalf("job count diverged: %d vs %d", len(seqLines), len(shLines))
	}
	for i := range seqLines {
		if shLines[i] != seqLines[i] {
			t.Fatalf("job %d diverged:\nseq:     %s\nsharded: %s", i, seqLines[i], shLines[i])
		}
	}
}

// weekReplayConfig assembles a Grid'5000-grounded week: the weekly
// arrival curve (weekday plateau, weekend trough) over a 168h horizon,
// small heavy-tailed jobs on a 128-host world, deadlines on every
// priority class.
func weekReplayConfig(t *testing.T, peak float64, maxSubs int) (Options, OpenConfig) {
	t.Helper()
	spec, err := grid.ParseTopologySpec("synth:S=4,H=32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := OpenConfig{
		Base:       spec,
		Strategies: []core.Strategy{core.Spread},
		Arrival: workload.ArrivalSpec{
			Kind: workload.ArrivalWeekly, Peak: peak, Trough: peak / 5,
		},
		Tenants:        8,
		TenantSkew:     1,
		PriorityLevels: 2,
		Duration:       168 * time.Hour,
		Warmup:         WarmupAuto,
		NMin:           1, NMax: 4,
		DurMin: 10, DurMax: 60,
		MaxSubmissions:  maxSubs,
		Workers:         64,
		DeadlineFactors: []float64{12, 6},
	}
	// Default options on purpose: a day-plus horizon must trip RunOpen's
	// long-horizon liveness diet, or this test burns its wall clock on
	// 20-second probe rounds — the exact regression the diet guards.
	return DefaultOptions(42), cfg
}

// TestOpenWeekReplaySmoke walks the whole 168-hour weekly arrival curve
// through the streaming replay path — lazy generation, bounded pending
// state, incremental fold — end to end. The full-scale 10M-submission
// run lives in the CI smoke; this keeps the path exercised on every
// `go test`.
func TestOpenWeekReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long replay")
	}
	opts, cfg := weekReplayConfig(t, 0.01, 2000)
	pt, err := RunOpen(opts, cfg, core.Spread)
	if err != nil {
		t.Fatal(err)
	}
	if pt.HorizonSeconds != 604800 {
		t.Errorf("horizon %.0fs, want a full week", pt.HorizonSeconds)
	}
	if pt.Submitted < 1000 {
		t.Errorf("only %d submissions over a week — arrival curve broken?", pt.Submitted)
	}
	if pt.Measured == 0 || pt.Completed+pt.Failed != pt.Measured {
		t.Errorf("measured %d != completed %d + failed %d", pt.Measured, pt.Completed, pt.Failed)
	}
	if pt.SLOAttainment <= 0 {
		t.Errorf("slo attainment %.4f — deadlines never folded", pt.SLOAttainment)
	}
}

// TestOpenAccumFootprint1M drives a million synthetic completions
// through the open family's accumulation path and holds its retained
// memory O(1): the t-digest streams keep centroids, not samples, and
// the fairness state is O(tenants). This is the layer that lets a
// 10M-submission steady-state sweep run in constant memory.
func TestOpenAccumFootprint1M(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	feed := func(n int) *openAccum {
		acc := newOpenAccum(16)
		u := uint64(1)
		for i := 0; i < n; i++ {
			u = u*6364136223846793005 + 1442695040888963407
			wait := float64(u%100_000) / 1000
			service := 20 + float64(u%1800)
			acc.observe(int(u%16), 2+int(u%30), wait,
				boundedSlowdown(wait+service, service), service, u%97 == 0)
		}
		return acc
	}
	feed(10_000) // warm allocator pools

	before := heap()
	acc := feed(1_000_000)
	after := heap()

	if acc.measured != 1_000_000 {
		t.Fatalf("accumulated %d observations", acc.measured)
	}
	const budget = 1 << 20 // 1 MiB for two digests + per-tenant moments
	if grew := int64(after) - int64(before); grew > budget {
		t.Errorf("1M-submission accumulation grew the heap by %d bytes (budget %d)", grew, budget)
	}
	if rb := acc.wait.Digest().RetainedBytes() + acc.slow.Digest().RetainedBytes(); rb > budget {
		t.Errorf("digests retain %d bytes (budget %d)", rb, budget)
	}
	runtime.KeepAlive(acc)
}
