package exp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
)

// Golden-trace regression tests: the committed CSVs under testdata/ pin
// the exact output of one tiny fixed-seed run of each experiment
// family. Every run here must reproduce them byte for byte — whatever
// the worker count, and (for the static scale world) whatever the
// supernode-federation width. This replaces the ad-hoc manual golden
// comparisons earlier PRs did by hand: any change that moves a virtual
// timestamp, a jitter draw or a placement now fails visibly in CI, and
// intentional changes regenerate the files with
//
//	UPDATE_GOLDEN=1 go test -run TestGolden ./internal/exp/
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from the committed golden:\n--- want ---\n%s--- got ---\n%s",
			name, want, got)
	}
}

func goldenBase(t testing.TB) grid.TopologySpec {
	t.Helper()
	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestGoldenScaleTrace: the scale family, across worker counts 1/4/8
// and federation widths 1/4 — six runs, one committed byte string.
func TestGoldenScaleTrace(t *testing.T) {
	cfg := ScaleConfig{Base: goldenBase(t), N: 6}
	var first string
	for _, k := range []int{1, 4} {
		for _, workers := range []int{1, 4, 8} {
			c := cfg
			c.Supernodes = []int{k}
			pts, err := ScaleSweep(DefaultOptions(42), c, workers)
			if err != nil {
				t.Fatalf("sn=%d workers=%d: %v", k, workers, err)
			}
			csv := ScaleSheet(pts).CSV()
			if first == "" {
				first = csv
				continue
			}
			if csv != first {
				t.Fatalf("sn=%d workers=%d diverged:\n--- first ---\n%s--- this run ---\n%s",
					k, workers, first, csv)
			}
		}
	}
	goldenCompare(t, "golden_scale.csv", first)
}

// goldenChurnConfig is the churn family's golden point: one MTBF, one
// strategy, R = 1 and 2.
func goldenChurnConfig(t testing.TB) NemesisConfig {
	return churnOnly(NemesisConfig{
		Base:       goldenBase(t),
		Strategies: []core.Strategy{core.Spread},
		MTBFs:      []time.Duration{300 * time.Second},
		Rs:         []int{1, 2},
		N:          6,
		Jobs:       3,
		JobSeconds: 40,
		Faults:     faults.Config{MTTR: time.Minute},
		Detect:     10 * time.Second,
	})
}

// TestGoldenChurnTrace: one survivability point per R, across worker
// counts — the fault-injection timeline, detector probes, failovers and
// re-books all replay identically.
func TestGoldenChurnTrace(t *testing.T) {
	cfg := goldenChurnConfig(t)
	var first string
	for _, workers := range []int{1, 4, 8} {
		pts, err := NemesisSweep(DefaultOptions(42), cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		csv := ChurnSheet(pts).CSV()
		if first == "" {
			first = csv
			continue
		}
		if csv != first {
			t.Fatalf("workers=%d diverged:\n--- first ---\n%s--- this run ---\n%s",
				workers, first, csv)
		}
	}
	goldenCompare(t, "golden_churn.csv", first)
}

// TestChurnWeibullSiteOutagePinned: the golden churn point under
// heavy-tailed Weibull lifetimes and correlated site outages, every
// strategy, across worker counts. The SHA-256 pins the CSV the
// standalone churn sweep produced before it became a nemesis preset,
// so the Dist/WeibullShape/SiteMTBF plumbing cannot drift.
func TestChurnWeibullSiteOutagePinned(t *testing.T) {
	const want = "97a4f57d8744df1099f52b311d72c2a5a954d9a590abd4932d3df2c9a617a5a1"
	cfg := goldenChurnConfig(t)
	cfg.Faults.UpDist, cfg.Faults.DownDist = faults.DistWeibull, faults.DistWeibull
	cfg.Faults.WeibullShape = 0.7
	cfg.Faults.SiteMTBF = 15 * time.Minute
	cfg.Strategies = core.Strategies()
	for _, workers := range []int{1, 4} {
		pts, err := NemesisSweep(DefaultOptions(42), cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		csv := ChurnSheet(pts).CSV()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(csv))); got != want {
			t.Fatalf("workers=%d: sha256 %s, want %s:\n%s", workers, got, want, csv)
		}
	}
}

// TestGoldenConcTrace: the K-concurrent-jobs family across worker
// counts.
func TestGoldenConcTrace(t *testing.T) {
	opts := DefaultOptions(42)
	opts.Topology = goldenBase(t)
	var first string
	for _, workers := range []int{1, 4, 8} {
		pts, err := ConcurrentSweep(opts, core.Spread, []int{1, 2}, ConcurrentConfig{N: 6}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		csv := ConcurrentSheet(pts).CSV()
		if first == "" {
			first = csv
			continue
		}
		if csv != first {
			t.Fatalf("workers=%d diverged:\n--- first ---\n%s--- this run ---\n%s",
				workers, first, csv)
		}
	}
	goldenCompare(t, "golden_conc.csv", first)
}
