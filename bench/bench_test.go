package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricTables: every metric is named once, within the contract's
// character set, with a unit; and BENCHMARK.json says what the Go tables
// say.
func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's character set", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}

	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why != whyWorkload[w.Name] {
			t.Errorf("workload %s: BENCHMARK.json's why differs from the harness's", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound differs from the harness's %g", kind, w.Name, w.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, contractEndToEnd(), true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// smokeRun runs one smoke rep and checks what every rep must satisfy.
func smokeRun(t *testing.T, workload string, traced bool) *runRecord {
	t.Helper()
	out := t.TempDir()
	rec, err := runOnce(runConfig{
		Workload: workload, Seed: 42, Seconds: 0, Traced: traced, Size: "smoke", OutDir: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		blob, err := os.ReadFile(filepath.Join(out, "trace_"+workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct{ TraceEvents []chromeEvent }
		if err := json.Unmarshal(blob, &trace); err != nil || len(trace.TraceEvents) != len(rec.spans) {
			t.Errorf("%s: trace file holds %d events for %d spans (%v)", workload, len(trace.TraceEvents), len(rec.spans), err)
		}
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < minPoints {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d (%s)", workload, rec.Correct, rec.Attempted, rec.Failed, rec.DigestCheck)
	}
	for _, p := range rec.Points {
		if p.Digest != rec.SimDigest {
			t.Errorf("%s: sim_digest differs between two points of one run", workload)
		}
	}

	// Every named metric exactly once, with its unit.
	defs := contractEndToEnd()
	if traced {
		defs = perLayer
	}
	res := rec.contract()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, m.Name)
		} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: metric %s = %v %q", workload, m.Name, got.Value, got.Unit)
		}
	}
	if !traced {
		for _, m := range defs {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be zero", workload, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}

	// The record round-trips through JSON.
	blob, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back runRecord
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	back.spans = rec.spans
	if !reflect.DeepEqual(&back, rec) {
		t.Errorf("%s: record changed across a JSON round trip", workload)
	}

	// Span tree: per point, the self times of the non-harness spans sum
	// to point_wall_s.
	self := selfTimes(rec.spans)
	var total, roots time.Duration
	for i, s := range rec.spans {
		total += self[i]
		if s.Parent < 0 {
			roots += s.dur()
		}
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", workload, s.Name)
		}
	}
	if total != roots {
		t.Errorf("%s: self times sum to %v, root spans to %v", workload, total, roots)
	}
	for i, p := range rec.Points {
		wall := pointWall(rec.spans, i).Seconds()
		// 2 % of the point, or 10 ms for smoke points of a few tens of
		// milliseconds, where one preemption between two spans (the suite
		// runs next to other test binaries) is already more than 2 %.
		if d := math.Abs(wall - p.WallS); d > math.Max(0.02*p.WallS, 0.010) {
			t.Errorf("%s point %d: span self times sum to %.6fs, point_wall_s is %.6fs", workload, i, wall, p.WallS)
		}
	}
	return rec
}

// TestSmoke runs all five workloads at smoke size, in parallel so the
// Grid'5000 boots of paper_fig4 overlap the rest.
func TestSmoke(t *testing.T) {
	t.Run("paper_fig4", func(t *testing.T) {
		t.Parallel()
		smokeRun(t, wlPaperFig4, false)
	})
	t.Run("scale_pair", func(t *testing.T) {
		t.Parallel()
		seq := smokeRun(t, wlScaleFed, false)
		sharded := smokeRun(t, wlScaleSharded, false)
		if seq.SimDigest != sharded.SimDigest {
			t.Errorf("sharded engine digest %s, sequential %s", sharded.SimDigest, seq.SimDigest)
		}
	})
	t.Run("open_slo", func(t *testing.T) {
		t.Parallel()
		smokeRun(t, wlOpenSLO, false)
	})
	t.Run("hostile_fed", func(t *testing.T) {
		t.Parallel()
		smokeRun(t, wlHostileFed, false)
	})
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		rec := smokeRun(t, wlHostileFed, true)
		var sum float64
		for name, v := range rec.PerLayer {
			if strings.HasSuffix(name, "cpu_share") && name != "exp.gc_cpu_share" {
				sum += v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("cpu shares sum to %v, want 1", sum)
		}
	})
}

// TestPinnedDigests: the committed digests cover seeds 42 and 7 of every
// workload, and the scale pair is pinned to one value.
func TestPinnedDigests(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		for _, wl := range workloadNames {
			d, err := pinnedDigest("full", wl, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) != 64 {
				t.Errorf("%s seed %d: no pinned digest", wl, seed)
			}
		}
		a, _ := pinnedDigest("full", wlScaleFed, seed)
		b, _ := pinnedDigest("full", wlScaleSharded, seed)
		if a != b {
			t.Errorf("seed %d: scale pair pinned to different digests", seed)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "point_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "host_vsec_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "fail_share", Better: "lower", Sim: true}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, base, scale(1.05), "same"},
		{lower, base, scale(1.2), "worse"},
		{lower, base, scale(0.8), "better"},
		{higher, base, scale(0.8), "worse"},
		{higher, base, scale(1.2), "better"},
		{lower, []float64{8, 10, 12, 9, 11}, scale(1.2), "unresolved"},
		{exact, []float64{0.04, 0.04}, []float64{0.04, 0.04}, "same"},
		{exact, []float64{0.04, 0.04}, []float64{0.05, 0.05}, "worse"},
		{exact, []float64{0, 0}, []float64{0, 0}, "same"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFiles: two written result sets compare row by row, and a
// BENCH file round-trips.
func TestCompareFiles(t *testing.T) {
	mk := func(dir string, wall float64) {
		bf := benchFile{Schema: schemaVersion, Workload: wlOpenSLO, SimDigest: "abc", Metrics: map[string]metricSummary{}}
		for _, m := range endToEnd {
			v := []float64{wall, wall * 1.01, wall * 0.99}
			if m.Sim {
				v = []float64{0.04, 0.04, 0.04}
			}
			bf.Metrics[m.Name] = metricSummary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Median: median(v), N: 3, Values: v}
		}
		if err := writeJSON(filepath.Join(dir, "BENCH_"+wlOpenSLO+".json"), bf); err != nil {
			t.Fatal(err)
		}
		set, _, err := loadSet(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*set[wlOpenSLO], bf) {
			t.Errorf("BENCH file changed across a round trip")
		}
	}
	a, b := t.TempDir(), t.TempDir()
	mk(a, 4)
	mk(b, 4.1)
	var out bytes.Buffer
	worse, err := compareSets(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if worse != 0 || !strings.Contains(out.String(), "7 same") {
		t.Errorf("A/A-like comparison: %d worse\n%s", worse, out.String())
	}
	mk(b, 6)
	out.Reset()
	if worse, _ = compareSets(&out, a, b); worse == 0 {
		t.Errorf("a 50%% slowdown was not reported worse\n%s", out.String())
	}
}

// TestCPUShares: the hand-rolled profile reader charges a real profile
// completely.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 150*time.Millisecond; {
		x += math.Sqrt(float64(time.Now().UnixNano()))
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatalf("%v (x=%v)", err, x)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares[bgShare] == 0 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
}
