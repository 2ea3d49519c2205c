package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// Memory-footprint regression tests: a million-host world has to fit
// in a few GB, so live heap per booted host is a budgeted quantity
// (docs/PERF.md, "The memory model"), enforced here with
// runtime.ReadMemStats the same way the zero-alloc tests enforce the
// message path. Footprint regressions are silent — nothing fails,
// sweeps just stop fitting in RAM — so the budget is a tier-1 test,
// not a benchmark.

// footprintBudgetBytes is the enforced live-heap budget per booted
// host. The measured steady state on the current engine is ~3.0 KB/host
// at 10k hosts under a K=4 federation, ~3.8 KB at 50k under K=16 and
// ~3.3 KB at 100k under K=16 — the K-member last-seen arrays make a
// wider federation cost more per host, and per-world fixed costs
// amortize as the world grows (docs/PERF.md, "The memory model", has
// the per-structure decomposition). The budget leaves headroom for
// noise while still catching any structural regression — an eager map,
// an uninterned table, an unbounded pool — which costs hundreds of
// bytes per host at once.
const footprintBudgetBytes = 4096

// bootGarbageBudgetBytes is the enforced allocation budget per booted
// host: TotalAlloc across Boot, live or not. The live-heap budget cannot
// see a boot storm that allocates a hundred times what it retains — the
// membership plane once made 339 KB per host to keep 3 KB, and a third
// of the boot's CPU went to collecting it. With views, snapshots, decode
// targets and big frames recycled the 10k-host boot allocates ~15 KB per
// host; the budget catches a rebuild, a decode or a frame copy that goes
// back to the allocator per gossip tick (each costs tens of KB per host
// at once), not noise.
const bootGarbageBudgetBytes = 32 << 10

// footprintOptions mirrors the knobs every >2000-host scale-sweep
// point runs with (see scaleAt), so the measured retention is the
// sweep's actual steady state, not an unbounded-reply artifact.
func footprintOptions(sites, hostsPerSite, sn int) Options {
	o := DefaultOptions(42)
	o.Topology = grid.TopologySpec{Kind: "synth", Sites: sites, HostsPerSite: hostsPerSite}
	o.Supernodes = sn
	if hosts := sites * hostsPerSite; hosts > 2000 {
		o.MaxPeersReturned = 512
		o.PeerRefreshInterval = time.Hour
		o.PeerCacheCap = 2
		o.BootSpread = 2 * time.Minute
		o.PeerAliveInterval = 4 * time.Minute
	}
	return o
}

// measureFootprint boots a world, runs it to steady state, and returns
// its live-heap cost per host — HeapAlloc growth from before
// construction, with a forced GC on both sides so only retained memory
// counts — and what Boot allocated per host, garbage included.
func measureFootprint(t *testing.T, o Options) (perHost, bootAllocPerHost float64) {
	t.Helper()
	hosts := o.Topology.TotalHosts()
	runtime.GC()
	var before, booted runtime.MemStats
	runtime.ReadMemStats(&before)

	w := NewWorld(o)
	if err := w.Boot(); err != nil {
		w.Close()
		t.Fatal(err)
	}
	runtime.ReadMemStats(&booted)
	bootAllocPerHost = float64(booted.TotalAlloc-before.TotalAlloc) / float64(hosts)
	// A minute of virtual steady state before measuring: what a sweep
	// retains is the *running* world, and two of the big sharing wins only
	// land after the boot storm drains — federation members adopt the one
	// canonical merged view on their first quiescent gossip round, and
	// the last straggler registrations stop forcing copy-on-write. Memory
	// at the Boot() return instant transiently holds K private views.
	w.RunFor(time.Minute)
	// Two cycles: sync.Pool victim caches (the decode scratch pools)
	// survive exactly one GC, and they are transient state, not retention.
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perHost = float64(after.HeapAlloc-before.HeapAlloc) / float64(hosts)
	t.Logf("%d hosts, sn=%d: %.0f B/host live at steady state (heap %.1f MB, peak RSS %.2f GB); boot allocated %.0f B/host",
		hosts, o.Supernodes, perHost, float64(after.HeapAlloc-before.HeapAlloc)/(1<<20),
		float64(PeakRSSBytes())/(1<<30), bootAllocPerHost)
	w.Close()
	return perHost, bootAllocPerHost
}

// TestWorldFootprintBudget enforces the per-host budgets — live heap at
// steady state, and bytes allocated by the boot — on a 10k-host
// federated world: large enough that per-host costs dominate the fixed
// ones, small enough to boot on every `go test ./...` run.
func TestWorldFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 10,000-host world")
	}
	perHost, bootAlloc := measureFootprint(t, footprintOptions(10, 1000, 4))
	if perHost > footprintBudgetBytes {
		t.Errorf("live heap %.0f B/host, budget %d B/host — a per-host structure grew; "+
			"see docs/PERF.md 'The memory model' before raising the budget", perHost, footprintBudgetBytes)
	}
	if bootAlloc > bootGarbageBudgetBytes {
		t.Errorf("boot allocated %.0f B/host, budget %d B/host — something on the membership plane "+
			"went back to the allocator per gossip tick or per reply; see docs/PERF.md 'The memory model'",
			bootAlloc, bootGarbageBudgetBytes)
	}
}

// TestFootprintGate compares the measured 10k-host footprint against
// the committed perf/BASELINE.json (pointed to by PERF_GATE_BASELINE,
// the same baseline the event-throughput gate reads). The bar is
// 1.25×: footprint after a forced GC barely varies between runners, so
// a tighter bound than the throughput gate's 2× still rides out noise
// while catching a few-hundred-bytes-per-host structural regression.
func TestFootprintGate(t *testing.T) {
	path := os.Getenv("PERF_GATE_BASELINE")
	if path == "" {
		t.Skip("PERF_GATE_BASELINE not set (CI sets it to perf/BASELINE.json)")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		FootprintBytesPerHost float64 `json:"footprint_bytes_per_host"`
	}
	if err := json.Unmarshal(blob, &baseline); err != nil {
		t.Fatal(err)
	}
	if baseline.FootprintBytesPerHost <= 0 {
		t.Fatalf("%s has no footprint_bytes_per_host", path)
	}
	perHost, _ := measureFootprint(t, footprintOptions(10, 1000, 4))
	if limit := baseline.FootprintBytesPerHost * 1.25; perHost > limit {
		t.Fatalf("live heap %.0f B/host, baseline %.0f (limit %.0f) — re-baseline deliberately, "+
			"with the decomposition from docs/PERF.md 'The memory model' updated in the PR",
			perHost, baseline.FootprintBytesPerHost, limit)
	}
}

// TestWorldFootprint100k measures the 100k-host K=16 flagship
// footprint and merges it into the BENCH_perf.json record named by
// FOOTPRINT_100K_JSON (the CI perf job sets it). The same per-host
// budget is enforced — at this scale the interning and snapshot
// sharing must carry their weight, not just the lazy maps, and the
// K=16 federation pays four times the K=4 last-seen array cost.
func TestWorldFootprint100k(t *testing.T) {
	out := os.Getenv("FOOTPRINT_100K_JSON")
	if out == "" {
		t.Skip("FOOTPRINT_100K_JSON not set (boots a 100,000-host world)")
	}
	perHost, _ := measureFootprint(t, footprintOptions(16, 6250, 16))

	record := map[string]any{}
	if blob, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(blob, &record); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", out, err)
		}
	}
	record["footprint_hosts"] = 100000
	record["footprint_sn"] = 16
	record["footprint_bytes_per_host"] = perHost
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	if perHost > footprintBudgetBytes {
		t.Fatalf("live heap %.0f B/host at 100k, budget %d B/host", perHost, footprintBudgetBytes)
	}
}

// TestScaleExtremePoint completes one full scale-sweep point — boot,
// one strategy submission, CSV-visible measurements — on a huge world
// and records wall clock plus peak RSS into the BENCH_perf.json record
// named by SCALE_EXTREME_JSON. SCALE_EXTREME_HOSTS (default 500000)
// and SCALE_EXTREME_SHARDS (default 8) shape the run: CI's time-boxed
// smoke uses 500k, the release trajectory adds the million-host point.
// Peak RSS is the number the ≤4 GB million-host acceptance bar reads.
func TestScaleExtremePoint(t *testing.T) {
	out := os.Getenv("SCALE_EXTREME_JSON")
	if out == "" {
		t.Skip("SCALE_EXTREME_JSON not set (boots a 500k+ host world)")
	}
	hosts := 500_000
	if v := os.Getenv("SCALE_EXTREME_HOSTS"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &hosts); err != nil {
			t.Fatalf("bad SCALE_EXTREME_HOSTS %q: %v", v, err)
		}
	}
	shards := 8
	if v := os.Getenv("SCALE_EXTREME_SHARDS"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &shards); err != nil {
			t.Fatalf("bad SCALE_EXTREME_SHARDS %q: %v", v, err)
		}
	}

	// The acceptance bar is peak RSS, and Go's default heap goal is
	// 2× live — which at ~3.5 KB/host live would push a million-host run
	// to ~7 GB of dead-plus-live heap. A soft memory limit trades GC
	// frequency for footprint instead; the runs that matter here are
	// memory-bound, not GC-bound. The limit scales with the world
	// (~5 KB/host covers live heap plus boot-transient stacks) and is
	// clamped below the 4 GB bar so the limit, not the GC's 2× default,
	// decides the peak.
	limit := int64(hosts) * 5 << 10
	if lo := int64(1 << 30); limit < lo {
		limit = lo
	}
	if hi := int64(15 << 28); limit > hi { // 3.75 GiB
		limit = hi
	}
	prevLimit := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prevLimit)

	base, err := grid.ParseTopologySpec("synth:S=16,H=1")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(42)
	o.Supernodes = 16
	o.Shards = shards
	cfg := ScaleConfig{
		Base:       base,
		HostCounts: []int{hosts},
		Strategies: core.Strategies()[:1],
		N:          128,
	}
	start := time.Now()
	pts, err := ScaleSweep(o, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	rss := PeakRSSBytes()
	t.Logf("%d hosts, sn=16, shards=%d: sweep point %.1fs wall, peak RSS %.2f GB",
		pts[0].Hosts, shards, wall.Seconds(), float64(rss)/(1<<30))

	record := map[string]any{}
	if blob, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(blob, &record); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", out, err)
		}
	}
	key := fmt.Sprintf("scale_%dk", pts[0].Hosts/1000)
	record[key+"_wall_seconds"] = wall.Seconds()
	record[key+"_peak_rss_bytes"] = rss
	record[key+"_shards"] = shards
	record[key+"_seconds_virtual"] = pts[0].Seconds
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
