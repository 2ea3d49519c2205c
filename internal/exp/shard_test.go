package exp

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
)

// Cross-shard determinism property tests: the committed golden CSVs
// (testdata/, owned by the TestGolden* sequential runs) must be
// reproduced byte for byte by every sharded configuration. This is the
// contract that makes -shards a pure performance axis — partitioning
// the virtual timeline across per-site schedulers, whatever the shard
// count, worker count or federation width, may not move a single
// virtual timestamp, jitter draw or placement that the experiment
// CSVs observe.
//
// Shard counts above the site count (the golden base has 3 sites)
// exercise the clamp in grid.PartitionSites: -shards 8 on a 3-site
// grid runs 3 shards.
func shardGolden(t *testing.T, name string) string {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		t.Skip("goldens are being regenerated by the sequential TestGolden* runs")
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden file (generate with UPDATE_GOLDEN=1 go test -run TestGolden): %v", err)
	}
	return string(want)
}

// TestShardDeterminismScale: the scale family across
// shards 1/2/4/8 × federation width 1/4 × workers 1/4.
func TestShardDeterminismScale(t *testing.T) {
	want := shardGolden(t, "golden_scale.csv")
	cfg := ScaleConfig{Base: goldenBase(t), N: 6}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, k := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				c := cfg
				c.Supernodes = []int{k}
				opts := DefaultOptions(42)
				opts.Shards = shards
				pts, err := ScaleSweep(opts, c, workers)
				if err != nil {
					t.Fatalf("shards=%d sn=%d workers=%d: %v", shards, k, workers, err)
				}
				if csv := ScaleSheet(pts).CSV(); csv != want {
					t.Fatalf("shards=%d sn=%d workers=%d diverged from golden:\n--- want ---\n%s--- got ---\n%s",
						shards, k, workers, want, csv)
				}
			}
		}
	}
}

// TestShardDeterminismChurn: the churn preset — the churn timeline
// replays at window barriers in sharded worlds as the domain's global
// events, and must still fire every failure, detection and re-book at
// the same virtual instant.
func TestShardDeterminismChurn(t *testing.T) {
	want := shardGolden(t, "golden_churn.csv")
	cfg := goldenChurnConfig(t)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions(42)
			opts.Shards = shards
			pts, err := NemesisSweep(opts, cfg, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if csv := ChurnSheet(pts).CSV(); csv != want {
				t.Fatalf("shards=%d workers=%d diverged from golden:\n--- want ---\n%s--- got ---\n%s",
					shards, workers, want, csv)
			}
		}
	}
}

// TestShardDeterminismConc: the K-concurrent-jobs family.
func TestShardDeterminismConc(t *testing.T) {
	want := shardGolden(t, "golden_conc.csv")
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions(42)
			opts.Topology = goldenBase(t)
			opts.Shards = shards
			pts, err := ConcurrentSweep(opts, core.Spread, []int{1, 2}, ConcurrentConfig{N: 6}, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if csv := ConcurrentSheet(pts).CSV(); csv != want {
				t.Fatalf("shards=%d workers=%d diverged from golden:\n--- want ---\n%s--- got ---\n%s",
					shards, workers, want, csv)
			}
		}
	}
}

// TestShardDeterminismFederated pins the sharded path on the
// multi-supernode federation overlay at a non-trivial scale: one
// federated world per shard count, all producing the same scale point.
func TestShardDeterminismFederated(t *testing.T) {
	cfg := ScaleConfig{Base: goldenBase(t), N: 4, Supernodes: []int{4}}
	var first string
	for _, shards := range []int{1, 2, 3} {
		opts := DefaultOptions(7)
		opts.Shards = shards
		pts, err := ScaleSweep(opts, cfg, 2)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		csv := ScaleSheet(pts).CSV()
		if first == "" {
			first = csv
			continue
		}
		if csv != first {
			t.Fatalf("shards=%d diverged:\n--- shards=1 ---\n%s--- this run ---\n%s", shards, first, csv)
		}
	}
	if first == "" {
		t.Fatal("no output")
	}
}

// TestShardBootStormDriftBounded pins the one known, bounded deviation
// of sharded runs from the sequential timeline — and that it stays
// bounded. A delivery planned inside a window cannot see cross-shard
// traffic that merges at the barrier with an earlier reservation start
// on the same receiver NIC; the serializer frontiers and every
// cross-shard arrival are corrected to the exact sequential values at
// the merge (simnet's as-if-sorted replay), but a local delivery that
// already fired keeps its optimistic — early — arrival. The only place
// the overlap is dense enough to observe is a multi-thousand-host boot
// storm funnelling registrations into the supernode NICs, and the only
// number that moves is the registration round-trip metric.
//
// The test boots the CI federation-smoke world (2000 hosts, K=4)
// sequentially and on 4 shards and asserts the contract the docs
// promise: registration *counts* identical, per-peer RTT drift under
// the 250µs jitter floor (measured max ≈ 193µs), mean drift under
// 0.2%. Everything the golden suite observes is exact; this is the
// fence around what is not.
func TestShardBootStormDriftBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two 2000-host worlds")
	}
	base, err := grid.ParseTopologySpec("synth:S=4,H=500")
	if err != nil {
		t.Fatal(err)
	}
	boot := func(shards int) *World {
		o := DefaultOptions(42)
		o.Topology = specForHosts(base, 2000)
		o.Supernodes = 4
		o.Shards = shards
		o.MaxPeersReturned = 512
		o.PeerRefreshInterval = time.Hour
		w := NewWorld(o)
		if err := w.Boot(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return w
	}
	w1, w4 := boot(1), boot(4)
	defer w1.Close()
	defer w4.Close()
	var sum1, sum4, maxAbs int64
	for i := range w1.Peers {
		s1, s4 := w1.Peers[i].Stats(), w4.Peers[i].Stats()
		if s1.Registrations != s4.Registrations {
			t.Errorf("peer %d registration count diverged: %d vs %d",
				i, s1.Registrations, s4.Registrations)
		}
		sum1 += s1.RegNanos
		sum4 += s4.RegNanos
		d := s4.RegNanos - s1.RegNanos
		if d < 0 {
			d = -d
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	const jitterFloor = int64(250_000) // DefaultConfig JitterFloor in ns
	if maxAbs >= jitterFloor {
		t.Errorf("per-peer registration drift %dns reached the %dns jitter floor", maxAbs, jitterFloor)
	}
	mean1, mean4 := sum1/int64(len(w1.Peers)), sum4/int64(len(w4.Peers))
	rel := float64(mean4-mean1) / float64(mean1)
	if rel < 0 {
		rel = -rel
	}
	if rel >= 0.002 {
		t.Errorf("mean registration drift %.4f%% (seq %dns, sharded %dns)", 100*rel, mean1, mean4)
	}
	t.Logf("drift: max %dns per peer, mean %dns -> %dns (%.4f%%)", maxAbs, mean1, mean4, 100*rel)
}

// TestWorldIsAlwaysADomain: there is one world engine. Shards 0 and 1
// both build a one-shard domain whose only scheduler is w.S, and churn
// and fault timelines are the domain's global events — starting them
// spawns no actor.
func TestWorldIsAlwaysADomain(t *testing.T) {
	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		opts := DefaultOptions(1)
		opts.Topology = spec
		opts.Shards = shards
		w := NewWorld(opts)
		if w.D == nil || w.D.Shards() != 1 || w.S != w.D.Shard(0) {
			t.Fatalf("Shards=%d: D=%v, S==D.Shard(0) is %v; want a one-shard domain", shards, w.D, w.D != nil && w.S == w.D.Shard(0))
		}
		if err := w.Boot(); err != nil {
			t.Fatal(err)
		}
		before := w.S.Actors()
		cd := w.StartChurn(faults.Config{Seed: 1, MTBF: time.Minute, MTTR: 10 * time.Second, Horizon: time.Minute})
		fd, _ := w.StartFaults(faults.Config{Seed: 1, PartMTBF: 10 * time.Second, PartMTTR: 5 * time.Second, Horizon: time.Minute})
		if got := w.S.Actors(); got != before {
			t.Fatalf("Shards=%d: %d actors before StartChurn+StartFaults, %d after", shards, before, got)
		}
		w.RunFor(time.Minute)
		if cd.Stop().Failures == 0 || fd.Stop().Partitions == 0 {
			t.Fatalf("Shards=%d: timelines did not replay (churn %+v, faults %+v)", shards, cd.Stop(), fd.Stop())
		}
		w.Close()
	}
}
