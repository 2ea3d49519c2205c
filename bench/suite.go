package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is how long one rep measures; BENCHMARK.json's
// run_seconds repeats it. A paper_fig4 point takes about 12 s here and
// every other workload's about 5 s, so a rep is two or three points.
const defaultSeconds = 10

// whyWorkload records why each workload is in the benchmark (also in
// BENCHMARK.json and the README).
var whyWorkload = map[string]string{
	wlPaperFig4:    "the paper's Figure 4 on Grid'5000: data plane (vtime hand-offs, mpi, simnet) busy, membership idle after the all-pairs-ping boot",
	wlScaleFed:     "boot storm and federated membership on a big synthetic world: overlay, wire and proto busy, mpi idle; the mirror image of paper_fig4",
	wlScaleSharded: "the same world on the 2-shard conservative engine: cross-shard delivery and barrier windows, which no other workload runs",
	wlOpenSLO:      "one small long-lived world: about a thousand submissions through sched quotas, preemption, workload.Stream and t-digests; vtime timers dominate",
	wlHostileFed:   "the failure path of the same layers: loss, partitions, gray hosts and churn with RPC retries and the breaker armed",
}

type suiteConfig struct {
	Seed    int64
	Seconds float64
	Size    string
	OutDir  string
	Reps    int
}

// metricSummary is one end-to-end metric over the reps of a workload.
// With a handful of reps no percentile has ten samples beyond it, so
// only median, min and max are given, next to every raw value.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Sim    bool      `json:"simulated"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// benchFile is BENCH_<workload>.json: one trajectory point.
type benchFile struct {
	Schema    int                      `json:"schema"`
	Workload  string                   `json:"workload"`
	Why       string                   `json:"why"`
	Env       envStamp                 `json:"env"`
	Sizes     sizes                    `json:"sizes"`
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	SimDigest string                   `json:"sim_digest"`
	Metrics   map[string]metricSummary `json:"end_to_end"`
	Reps      []*runRecord             `json:"reps"`
}

// layersFile is layers.json: the traced and kernel passes.
type layersFile struct {
	Schema int               `json:"schema"`
	Env    envStamp          `json:"env"`
	Sizes  sizes             `json:"sizes"`
	Seed   int64             `json:"seed"`
	Units  map[string]string `json:"units"`
	// Workloads maps workload -> per-layer metric -> value. Kernel
	// metrics do not depend on the workload; each traced rep re-measures
	// them and Kernels keeps the per-kernel median over those reps.
	Workloads map[string]map[string]float64 `json:"workloads"`
	Kernels   map[string]kernelResult       `json:"kernels"`
}

// runChild runs one rep in a fresh process of this binary and returns
// the record from its detail line. A rep that finds its output
// incorrect exits non-zero but still hands its record over.
func runChild(exe string, cfg runConfig) (*runRecord, error) {
	trace := "0"
	if cfg.Traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"--workload", cfg.Workload, "--seed", strconv.FormatInt(cfg.Seed, 10),
		"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "--trace", trace,
		"--size", cfg.Size, "--out", cfg.OutDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rec *runRecord
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			rec = &runRecord{}
			if err := json.Unmarshal([]byte(line), rec); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", cfg.Workload, err)
			}
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("%s: rep printed no record: %v", cfg.Workload, runErr)
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runSuite is `go run ./bench`: a discarded smoke warm-up, then reps in
// round-robin order over the workloads (one fresh process each, one at a
// time), then one traced rep per workload. It prints every metric by
// name with its unit, checks every sim_digest, and writes
// BENCH_<workload>.json and layers.json under cfg.OutDir.
func runSuite(cfg suiteConfig) error {
	pinProcs()
	env := stampEnv()
	fmt.Println(env)
	if env.LoadAvg1 > float64(env.NumCPU) {
		return fmt.Errorf("1-minute load average %.2f exceeds nproc %d: the machine is busy, refusing to report", env.LoadAvg1, env.NumCPU)
	}
	sz, ok := sizeTable[cfg.Size]
	if !ok {
		return fmt.Errorf("unknown size %q", cfg.Size)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	base := runConfig{Seed: cfg.Seed, Seconds: cfg.Seconds, Size: cfg.Size, OutDir: cfg.OutDir}

	fmt.Println("warm-up: one smoke-size pass, discarded")
	for _, wl := range workloadNames {
		warm := base
		warm.Workload, warm.Size, warm.Seconds = wl, "smoke", 0
		if _, err := runChild(exe, warm); err != nil {
			return err
		}
	}

	reps := map[string][]*runRecord{}
	var bad []string
	for rep := 0; rep < cfg.Reps; rep++ {
		for _, wl := range workloadNames {
			c := base
			c.Workload = wl
			rec, err := runChild(exe, c)
			if err != nil {
				return err
			}
			fmt.Printf("rep %d/%d %-24s %d points  wall %.3fs  %s\n", rep+1, cfg.Reps, wl,
				len(rec.Points), rec.EndToEnd["point_wall_s"], rec.DigestCheck)
			if !rec.Correct {
				bad = append(bad, fmt.Sprintf("%s rep %d: %s", wl, rep+1, rec.DigestCheck))
			}
			reps[wl] = append(reps[wl], rec)
		}
	}

	layers := layersFile{
		Schema: schemaVersion, Env: env, Sizes: sz, Seed: cfg.Seed,
		Units: map[string]string{}, Workloads: map[string]map[string]float64{},
		Kernels: map[string]kernelResult{},
	}
	for _, m := range perLayer {
		layers.Units[m.Name] = m.Unit
	}
	kernelReps := map[string][]kernelResult{}
	for _, wl := range workloadNames {
		c := base
		c.Workload, c.Traced = wl, true
		rec, err := runChild(exe, c)
		if err != nil {
			return err
		}
		if !rec.Correct {
			bad = append(bad, fmt.Sprintf("%s traced rep: %s", wl, rec.DigestCheck))
		}
		if rec.SimDigest != reps[wl][0].SimDigest {
			bad = append(bad, fmt.Sprintf("%s: traced digest %s differs from untraced %s", wl, rec.SimDigest, reps[wl][0].SimDigest))
		}
		layers.Workloads[wl] = rec.PerLayer
		for name, kr := range rec.Kernels {
			kernelReps[name] = append(kernelReps[name], kr)
		}
		fmt.Printf("traced %-24s trace_overhead %.2f%%  -> %s\n", wl, rec.PerLayer["exp.trace_overhead_pct"],
			filepath.Join(cfg.OutDir, "trace_"+wl+".json"))
	}
	for name, krs := range kernelReps {
		sort.Slice(krs, func(i, j int) bool { return krs[i].Median < krs[j].Median })
		layers.Kernels[name] = krs[len(krs)/2]
	}

	// Digests: every rep of a workload agrees, and the sharded engine
	// reproduces the sequential one.
	for _, wl := range workloadNames {
		for i, r := range reps[wl] {
			if r.SimDigest != reps[wl][0].SimDigest {
				bad = append(bad, fmt.Sprintf("%s: rep %d digest %s differs from rep 1 %s", wl, i+1, r.SimDigest, reps[wl][0].SimDigest))
			}
		}
	}
	if a, b := reps[wlScaleFed][0].SimDigest, reps[wlScaleSharded][0].SimDigest; a != b {
		bad = append(bad, fmt.Sprintf("sharded digest %s differs from sequential %s", b, a))
	}

	for _, wl := range workloadNames {
		bf := benchFile{
			Schema: schemaVersion, Workload: wl, Why: whyWorkload[wl], Env: env, Sizes: sz,
			Seed: cfg.Seed, Seconds: cfg.Seconds, SimDigest: reps[wl][0].SimDigest,
			Metrics: map[string]metricSummary{}, Reps: reps[wl],
		}
		for _, m := range endToEnd {
			var v []float64
			for _, r := range reps[wl] {
				v = append(v, r.EndToEnd[m.Name])
			}
			lo, hi := minMax(v)
			bf.Metrics[m.Name] = metricSummary{
				Unit: m.Unit, Better: m.Better, Bound: m.Bound, Sim: m.Sim,
				Median: median(v), Min: lo, Max: hi, N: len(v), Values: v,
			}
		}
		if err := writeJSON(filepath.Join(cfg.OutDir, "BENCH_"+wl+".json"), bf); err != nil {
			return err
		}
		printSummary(bf)
	}
	if err := writeJSON(filepath.Join(cfg.OutDir, "layers.json"), layers); err != nil {
		return err
	}
	printLayers(layers)

	if len(bad) > 0 {
		return errors.New("simulated output is wrong:\n  " + strings.Join(bad, "\n  "))
	}
	fmt.Printf("every sim_digest checked; results in %s\n", cfg.OutDir)
	return nil
}

func printSummary(bf benchFile) {
	fmt.Printf("\n%s  (seed %d, size %s, sim_digest %.16s…)\n", bf.Workload, bf.Seed, bf.Sizes.Name, bf.SimDigest)
	fmt.Printf("  %-18s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
	for _, m := range endToEnd {
		s := bf.Metrics[m.Name]
		fmt.Printf("  %-18s %-6s %14.6g %14.6g %14.6g %3d\n", m.Name, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
	fmt.Printf("  n=%d reps: no percentile has ten samples beyond it, so none is printed\n", len(bf.Reps))
}

func printLayers(l layersFile) {
	fmt.Printf("\nper-layer metrics (traced rep and kernel pass; informational)\n  %-36s %-6s", "metric", "unit")
	for _, wl := range workloadNames {
		fmt.Printf(" %14.14s", wl)
	}
	fmt.Println()
	for _, m := range perLayer {
		fmt.Printf("  %-36s %-6s", m.Name, m.Unit)
		for _, wl := range workloadNames {
			fmt.Printf(" %14.6g", l.Workloads[wl][m.Name])
		}
		fmt.Println()
	}
}
