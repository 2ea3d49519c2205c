package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads one result set: a BENCH_<workload>.json file, or a
// directory of them (with layers.json beside them, if the traced pass
// ran).
func loadSet(path string) (map[string]*benchFile, *layersFile, error) {
	files := []string{path}
	var layers *layersFile
	if st, err := os.Stat(path); err != nil {
		return nil, nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "BENCH_*.json")); err != nil {
			return nil, nil, err
		}
		if blob, err := os.ReadFile(filepath.Join(path, "layers.json")); err == nil {
			layers = &layersFile{}
			if err := json.Unmarshal(blob, layers); err != nil {
				return nil, nil, fmt.Errorf("%s/layers.json: %w", path, err)
			}
		}
	}
	set := map[string]*benchFile{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		bf := &benchFile{}
		if err := json.Unmarshal(blob, bf); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		if bf.Schema != schemaVersion {
			return nil, nil, fmt.Errorf("%s: schema %d, this binary reads %d", f, bf.Schema, schemaVersion)
		}
		set[bf.Workload] = bf
	}
	if len(set) == 0 {
		return nil, nil, fmt.Errorf("%s: no BENCH_*.json", path)
	}
	return set, layers, nil
}

// spread is the inter-quartile range of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

// verdict applies one metric's bound to base values a and candidate
// values b. Simulated metrics repeat exactly, so any difference in the
// median counts; host metrics are "unresolved" when either side's
// run-to-run spread is wider than the bound, since a move of the size
// the bound allows could then not be told from noise.
func verdict(m metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := mb - ma // positive = b is worse, in the metric's own unit
	if m.Better == "higher" {
		worse = -worse
	}
	rel := 0.0
	if ma != 0 {
		rel = worse / math.Abs(ma)
	} else if worse != 0 {
		rel = math.Copysign(math.Inf(1), worse)
	}
	switch {
	case m.Sim || m.Bound == 0:
		switch {
		case worse > 0:
			return "worse", rel
		case worse < 0:
			return "better", rel
		}
		return "same", rel
	case math.Max(spread(a), spread(b)) > m.Bound:
		return "unresolved", rel
	case rel > m.Bound:
		return "worse", rel
	case rel < -m.Bound:
		return "better", rel
	}
	return "same", rel
}

// compareSets prints one row per (metric, workload) pair present in
// both sets, then the simulated quantities that must be bit-identical:
// sim_digest and every work count. It returns the number of rows that
// are worse or differ.
func compareSets(w io.Writer, pathA, pathB string) (int, error) {
	a, la, err := loadSet(pathA)
	if err != nil {
		return 0, err
	}
	b, lb, err := loadSet(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A (base) = %s  %s\nB        = %s  %s\n", pathA, firstEnv(a), pathB, firstEnv(b))
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %22s %9s %7s  %s\n",
		"metric", "workload", "A median", "B median", "B/A (base A)", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloadNames {
		fa, fb := a[wl], b[wl]
		if fa == nil || fb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := fa.Metrics[m.Name], fb.Metrics[m.Name]
			v, _ := verdict(m, sa.Values, sb.Values)
			counts[v]++
			ratio := "n/a (base 0)"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.4f (base %.5g)", sb.Median/sa.Median, sa.Median)
			}
			fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g %22s %8.1f%% %6.0f%%  %s\n",
				m.Name, wl, sa.Median, sb.Median, ratio,
				100*math.Max(spread(sa.Values), spread(sb.Values)), 100*m.Bound, v)
		}
		d := "same"
		if fa.SimDigest != fb.SimDigest {
			d = "DIFFERENT"
			counts["different"]++
		}
		fmt.Fprintf(w, "%-18s %-24s %14.12s %14.12s %22s %9s %7s  %s\n", "sim_digest", wl, fa.SimDigest, fb.SimDigest, "", "", "exact", d)
	}
	if la != nil && lb != nil {
		differ := 0
		for _, wl := range workloadNames {
			for _, name := range append(workCounts(), "sim.job_fail_share") {
				va, vb := la.Workloads[wl][name], lb.Workloads[wl][name]
				if va != vb {
					differ++
					fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g  work count DIFFERENT\n", name, wl, va, vb)
				}
			}
		}
		counts["different"] += differ
		fmt.Fprintf(w, "work counts (simulated, from layers.json): %d differ\n", differ)
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "rows:")
	for _, k := range keys {
		fmt.Fprintf(w, " %d %s", counts[k], k)
	}
	fmt.Fprintln(w)
	return counts["worse"] + counts["different"], nil
}

func firstEnv(set map[string]*benchFile) string {
	for _, wl := range workloadNames {
		if f := set[wl]; f != nil {
			return fmt.Sprintf("commit=%s seed=%d reps=%d", f.Env.Commit, f.Seed, len(f.Reps))
		}
	}
	return ""
}
