package main

import (
	"math"
	"sort"
)

// metricDef names one metric: its unit, which direction is better, and
// (end-to-end only) the share of the baseline median by which it may
// worsen before a change counts as a regression. Sim marks simulated
// quantities, which repeat exactly; everything else is host time or
// host memory and is subject to the machine's noise.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Sim    bool
}

// endToEnd lists what a gridbench user sees. BENCHMARK.json repeats the
// first six (the self-test checks the two agree); fail_share is kept by
// the suite and -compare only, because the driver's contract wants
// metrics that are never zero and reports failures through its own
// attempted/failed keys.
var endToEnd = []metricDef{
	{Name: "point_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "host_vsec_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0, Sim: true},
}

// contractEndToEnd is the subset a driver run reports with --trace 0.
func contractEndToEnd() []metricDef { return endToEnd[:len(endToEnd)-1] }

// layers are this repo's packages under internal/, the units of
// per-layer attribution.
var layers = []string{
	"vtime", "simnet", "transport", "wire", "proto", "overlay", "reservation",
	"core", "mpd", "mpi", "nas", "replica", "sched", "workload", "stats",
	"churn", "faults", "latency", "grid", "exp",
}

// bgShare collects CPU samples whose stack holds no layer frame: GC
// workers, the Go scheduler's idle loop, and the harness itself.
const bgShare = "runtime.bg_cpu_share"

// perLayer lists every layer metric in the four groups of the README:
// (a) phase spans, (b) CPU share, (c) kernels, (d) simulated work counts.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	sim := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Sim: true}
	}
	var out []metricDef
	// (a) phase spans around exp.World calls.
	for _, m := range [][2]string{
		{"exp.construct_s", "s"}, {"exp.boot_s", "s"}, {"exp.boot_us_per_host", "us"},
		{"exp.boot_allocs_per_host", "count"}, {"exp.boot_bytes_per_host", "B"},
		{"exp.submit_ms", "ms"}, {"exp.steady_s_per_vmin", "s"}, {"exp.close_s", "s"},
		{"exp.live_heap_b_per_host", "B"}, {"exp.peak_rss_mb", "MB"},
		{"exp.gc_cpu_share", "ratio"}, {"exp.gc_pause_ms", "ms"}, {"exp.trace_overhead_pct", "%"},
		{"nas.is_point_s_128", "s"}, {"nas.ep_point_s_512", "s"},
	} {
		out = append(out, lo(m[0], m[1]))
	}
	// (b) host-time share per layer, from the harness-owned CPU profile.
	for _, l := range layers {
		out = append(out, lo(l+".cpu_share", "ratio"))
	}
	out = append(out, lo(bgShare, "ratio"))
	// (c) kernels: exported functions timed in isolation.
	for _, k := range kernels {
		out = append(out, k.metrics()...)
	}
	// (d) simulated work counts, exact.
	for _, m := range [][2]string{
		{"vtime.vsec", "s"}, {"vtime.windows", "count"}, {"vtime.skipped_windows", "count"},
		{"overlay.memb_bytes", "B"}, {"overlay.gossip_exchanges", "count"}, {"overlay.stale_ms_mean", "ms"},
		{"mpd.registrations", "count"}, {"mpd.reg_ms_mean", "ms"}, {"mpd.pings_sent", "count"},
		{"mpd.jobs_hosted", "count"}, {"mpd.rpc_retries", "count"}, {"mpd.breaker_skips", "count"},
		{"mpd.failovers", "count"}, {"reservation.ok", "count"}, {"reservation.nok", "count"},
		{"sched.throttle_rate", "ratio"}, {"sched.preemptions", "count"}, {"sched.rebooks", "count"},
		{"workload.submitted", "count"}, {"churn.failures", "count"},
		{"faults.partitions", "count"}, {"faults.gray_episodes", "count"}, {"faults.heal_s_mean", "s"},
		{"sim.job_fail_share", "ratio"},
	} {
		out = append(out, sim(m[0], m[1]))
	}
	return out
}

// workCounts names the (d) metrics: the keys every point's Counts map
// is projected onto.
func workCounts() []string {
	var out []string
	for _, m := range perLayer {
		if m.Sim && m.Name != "sim.job_fail_share" {
			out = append(out, m.Name)
		}
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
