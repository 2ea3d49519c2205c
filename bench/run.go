package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"p2pmpi/internal/exp"
)

// schemaVersion stamps every JSON file the benchmark writes.
const schemaVersion = 1

// pinnedDigests holds the sim_digest of every workload for the pinned
// seeds: size -> workload -> seed -> digest. See README "Adding a seed".
//
//go:embed baseline/digests.json
var pinnedDigestsJSON []byte

func pinnedDigest(size, workload string, seed int64) (string, error) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(pinnedDigestsJSON, &all); err != nil {
		return "", fmt.Errorf("baseline/digests.json: %w", err)
	}
	return all[size][workload][strconv.FormatInt(seed, 10)], nil
}

// envStamp is printed with every run and stored in every file.
type envStamp struct {
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

// pinProcs caps GOMAXPROCS at two: the numbers are sized on a two-core
// machine, and a wider runtime would change GC concurrency and the
// sharded engine's overlap, not just speed.
func pinProcs() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func stampEnv() envStamp {
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return envStamp{
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, LoadAvg1: loadAvg1(),
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("env: %s %s nproc=%d GOMAXPROCS=%d commit=%s loadavg1=%.2f",
		e.GoVersion, e.OSArch, e.NumCPU, e.GOMAXPROCS, e.Commit, e.LoadAvg1)
}

// pointRecord is the raw outcome of one point, as stored per rep.
type pointRecord struct {
	Traced        bool    `json:"traced"`
	SetupS        float64 `json:"setup_s"`
	RunS          float64 `json:"run_s"`
	WallS         float64 `json:"point_wall_s"`
	CPUS          float64 `json:"cpu_s"`
	LiveHeapMB    float64 `json:"live_heap_mb"`
	HostVSecPerS  float64 `json:"host_vsec_per_s"`
	JobsAttempted int     `json:"jobs_attempted"`
	JobsFailed    int     `json:"jobs_failed"`
	Digest        string  `json:"sim_digest"`
}

// runRecord is everything one process (one rep) measured.
type runRecord struct {
	Schema   int      `json:"schema"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Env      envStamp `json:"env"`
	Sizes    sizes    `json:"sizes"`

	Points       []pointRecord `json:"points"`
	SetupSamples []float64     `json:"setup_samples_s"`
	SimDigest    string        `json:"sim_digest"`
	// DigestCheck says what the digest was held against: "pinned" (the
	// value committed for this seed), "self" (the points of this run
	// agree with each other; the seed has no pin), or a mismatch.
	DigestCheck string `json:"digest_check"`
	Correct     bool   `json:"correct"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`

	EndToEnd map[string]float64      `json:"end_to_end,omitempty"`
	PerLayer map[string]float64      `json:"per_layer,omitempty"`
	Kernels  map[string]kernelResult `json:"kernels,omitempty"`

	spans []span // the recorder's spans, for the trace file and the self-test
}

func digestOf(simOutput string) string {
	sum := sha256.Sum256([]byte(simOutput))
	return hex.EncodeToString(sum[:])
}

// minPoints is the fewest points a run makes: two, so that a seed with
// no pinned digest is still checked for determinism.
const minPoints = 2

// extraSetupBudget bounds the twin boots a run adds to steady setup_s on
// workloads whose world is cheap to boot.
const (
	extraSetupBudget  = 1500 * time.Millisecond
	extraSetupSamples = 41
)

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Size     string
	OutDir   string
}

// runOnce is one rep: it runs points of one workload for cfg.Seconds
// (at least minPoints), checks their simulated output, and reduces them
// to the metrics. A traced rep interleaves untraced reference points with
// traced points under a CPU profile, then runs the kernel pass.
func runOnce(cfg runConfig) (*runRecord, error) {
	sz, ok := sizeTable[cfg.Size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", cfg.Size)
	}
	pinProcs()
	rec := &runRecord{
		Schema: schemaVersion, Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Traced: cfg.Traced, Env: stampEnv(), Sizes: sz,
	}
	fmt.Println(rec.Env)

	// One discarded smoke-size point first: the process's cold start
	// (heap growth, first-touch page faults, the runtime's goroutine and
	// arena pools) otherwise lands on the first point only, which a
	// median over two or three points does not absorb.
	if cfg.Size != "smoke" {
		if _, err := runPoint(newRecorder(cfg.Workload), cfg.Workload, sizeTable["smoke"], cfg.Seed); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// A traced rep alternates traced and untraced points, starting
	// traced, so that the process's cold start does not land on one side
	// of the overhead comparison only.
	r := newRecorder(cfg.Workload)
	var points []*point
	var profiles [][]byte
	minN := minPoints
	if cfg.Traced {
		minN = 3
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	for len(points) < minN || time.Since(start) < budget {
		r.traced = cfg.Traced && len(points)%2 == 0
		var profile bytes.Buffer
		if r.traced {
			if err := pprof.StartCPUProfile(&profile); err != nil {
				return nil, err
			}
		}
		p, err := runPoint(r, cfg.Workload, sz, cfg.Seed)
		if r.traced {
			pprof.StopCPUProfile()
			profiles = append(profiles, profile.Bytes())
		}
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		rec.Points = append(rec.Points, pointRecord{
			Traced: r.traced,
			SetupS: p.SetupS, RunS: p.RunS, WallS: p.WallS, CPUS: p.CPUS,
			LiveHeapMB:    float64(p.LiveHeapB) / 1e6,
			HostVSecPerS:  float64(p.Hosts) * p.VSec / p.WallS,
			JobsAttempted: p.JobsAttempted, JobsFailed: p.JobsFailed,
			Digest: digestOf(p.SimOutput),
		})
	}
	r.traced = false

	// Set-up samples: every point's own, plus twin boots while cheap.
	for _, p := range points {
		rec.SetupSamples = append(rec.SetupSamples, p.SetupS)
	}
	if !cfg.Traced {
		opts := worldOptions(cfg.Workload, sz, cfg.Seed)
		for t0 := time.Now(); len(rec.SetupSamples) < extraSetupSamples &&
			time.Since(t0).Seconds()+median(rec.SetupSamples) < extraSetupBudget.Seconds(); {
			twin, err := twinBoot(r, opts)
			if err != nil {
				return nil, err
			}
			rec.SetupSamples = append(rec.SetupSamples, twin.SetupS)
		}
	}

	rec.spans = r.spans
	if err := checkDigests(rec, cfg.Size); err != nil {
		return nil, err
	}
	if cfg.Traced {
		if err := tracedMetrics(rec, points, profiles, cfg.OutDir); err != nil {
			return nil, err
		}
	} else {
		rec.EndToEnd = reduceEndToEnd(rec)
	}
	return rec, nil
}

// checkDigests holds the run's simulated output against the pinned
// digest (or, for an unpinned seed, against itself) and fills the
// correctness fields. Every point is one attempt.
func checkDigests(rec *runRecord, size string) error {
	want, err := pinnedDigest(size, rec.Workload, rec.Seed)
	if err != nil {
		return err
	}
	rec.SimDigest = rec.Points[0].Digest
	rec.DigestCheck = "self"
	if want != "" {
		rec.DigestCheck = "pinned"
	} else {
		want = rec.SimDigest
	}
	rec.Attempted = len(rec.Points)
	for _, p := range rec.Points {
		if p.Digest != want {
			rec.Failed++
		}
	}
	if rec.Failed > 0 {
		rec.DigestCheck += fmt.Sprintf(" MISMATCH: want %s, got %s", want, rec.SimDigest)
	}
	rec.Correct = rec.Failed == 0
	return nil
}

// reduceEndToEnd takes medians over the untraced points.
func reduceEndToEnd(rec *runRecord) map[string]float64 {
	col := func(f func(pointRecord) float64) float64 {
		var v []float64
		for _, p := range rec.Points {
			if !p.Traced {
				v = append(v, f(p))
			}
		}
		return median(v)
	}
	var att, fail int
	for _, p := range rec.Points {
		att += p.JobsAttempted
		fail += p.JobsFailed
	}
	share := 0.0
	if att > 0 {
		share = float64(fail) / float64(att)
	}
	if !rec.Correct {
		share = 1 // a digest mismatch fails every attempt of the workload
	}
	return map[string]float64{
		"point_wall_s":    col(func(p pointRecord) float64 { return p.WallS }),
		"setup_s":         median(rec.SetupSamples),
		"run_s":           col(func(p pointRecord) float64 { return p.RunS }),
		"cpu_s":           col(func(p pointRecord) float64 { return p.CPUS }),
		"live_heap_mb":    col(func(p pointRecord) float64 { return p.LiveHeapMB }),
		"host_vsec_per_s": col(func(p pointRecord) float64 { return p.HostVSecPerS }),
		"fail_share":      share,
	}
}

// tracedMetrics reduces the traced points, the CPU profile and the
// kernel pass to the per-layer metrics, and writes the Chrome trace.
func tracedMetrics(rec *runRecord, points []*point, profiles [][]byte, outDir string) error {
	out := map[string]float64{}
	// (a) and (d): medians over the traced points of whatever the point
	// recorded under the metric's name; 0 where a workload has nothing.
	var traced []*point
	var tracedWall, plainWall []float64
	for i, p := range points {
		if rec.Points[i].Traced {
			traced = append(traced, p)
			tracedWall = append(tracedWall, p.WallS)
		} else {
			plainWall = append(plainWall, p.WallS)
		}
	}
	med := func(get func(p *point) (float64, bool)) float64 {
		var v []float64
		for _, p := range traced {
			if x, ok := get(p); ok {
				v = append(v, x)
			}
		}
		return median(v)
	}
	for _, m := range perLayer {
		name := m.Name
		out[name] = med(func(p *point) (float64, bool) {
			if x, ok := p.Phase[name]; ok {
				return x, true
			}
			x, ok := p.Counts[name]
			return x, ok
		})
	}
	out["sim.job_fail_share"] = med(func(p *point) (float64, bool) {
		if p.JobsAttempted == 0 {
			return 0, false
		}
		return float64(p.JobsFailed) / float64(p.JobsAttempted), true
	})
	var submits, is128, ep512 []float64
	for _, s := range rec.spans {
		if !rec.Points[s.Point].Traced {
			continue
		}
		sec := s.dur().Seconds()
		if strings.HasPrefix(s.Name, "exp.World.Submit.") || strings.HasPrefix(s.Name, "exp.NASSweep.") {
			submits = append(submits, sec*1e3)
		}
		if strings.HasPrefix(s.Name, "exp.NASSweep.is.") && strings.HasSuffix(s.Name, ".n128") {
			is128 = append(is128, sec)
		}
		if strings.HasPrefix(s.Name, "exp.NASSweep.ep.") && strings.HasSuffix(s.Name, ".n512") {
			ep512 = append(ep512, sec)
		}
	}
	out["exp.submit_ms"] = median(submits)
	out["nas.is_point_s_128"] = median(is128)
	out["nas.ep_point_s_512"] = median(ep512)
	out["exp.peak_rss_mb"] = float64(exp.PeakRSSBytes()) / 1e6
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["exp.gc_cpu_share"] = ms.GCCPUFraction
	out["exp.trace_overhead_pct"] = 100 * (median(tracedWall)/median(plainWall) - 1)

	// (b) CPU share per layer.
	shares, err := cpuShares(profiles)
	if err != nil {
		return err
	}
	for name, v := range shares {
		if _, known := out[name]; !known {
			return fmt.Errorf("cpu profile charged %q, which is not a declared layer metric", name)
		}
		out[name] = v
	}

	// (c) kernels.
	kv, detail, err := runKernels(rec.Sizes.Name == "smoke")
	if err != nil {
		return err
	}
	for name, v := range kv {
		out[name] = v
	}
	rec.PerLayer, rec.Kernels = out, detail

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeChromeTrace(filepath.Join(outDir, "trace_"+rec.Workload+".json"), rec.spans)
}

// contractResult is the one JSON object a driver run prints last.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rec *runRecord) contract() contractResult {
	res := contractResult{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]contractMetric{}}
	defs, values := contractEndToEnd(), rec.EndToEnd
	if rec.Traced {
		defs, values = perLayer, rec.PerLayer
	}
	for _, m := range defs {
		res.Metrics[m.Name] = contractMetric{Value: values[m.Name], Unit: m.Unit}
	}
	return res
}

// detailPrefix marks the line on which a rep hands its full record to
// the suite (the driver reads only the last line).
const detailPrefix = "detail: "

// printRun prints the human-readable summary, the detail line and, last,
// the contract's JSON object.
func printRun(rec *runRecord) error {
	fmt.Printf("workload %s seed %d size %s: %d points, sim_digest %s (%s)\n",
		rec.Workload, rec.Seed, rec.Sizes.Name, len(rec.Points), rec.SimDigest, rec.DigestCheck)
	defs, values := endToEnd, rec.EndToEnd
	if rec.Traced {
		defs, values = perLayer, rec.PerLayer
	}
	for _, m := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	detail, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	last, err := json.Marshal(rec.contract())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}
