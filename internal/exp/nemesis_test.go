package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
)

// nemesisTestConfig is the tiny-world sweep the determinism and golden
// tests share: a loss-only baseline point and a loss+partition point,
// with the RPC robustness layer armed at its defaults. Gray failures
// and composed churn stay off here — both strike the supernode tier's
// dedicated hosts, which only exist on federated worlds, and the
// golden pins the job-plane CSV across federation widths.
func nemesisTestConfig(t *testing.T) NemesisConfig {
	return NemesisConfig{
		Base:       goldenBase(t),
		Strategies: []core.Strategy{core.Spread},
		Losses:     []float64{0, 0.2},
		PartDurs:   []time.Duration{30 * time.Second},
		Faults:     faults.Config{PartMTBF: 2 * time.Minute, Split: true},
		N:          6,
		Rs:         []int{2},
		Jobs:       3,
		JobSeconds: 40,
		Detect:     10 * time.Second,
	}
}

// TestGoldenNemesisTrace: the nemesis family with faults enabled,
// across worker counts 1/4, shard counts 1/4 and federation widths
// 1/4 — eight runs, one committed byte string. The fault trace, every
// retry, every detector write-off and every re-book replay
// identically whatever the execution shape; the job-plane CSV is also
// federation-width-independent because booking runs off the boot-time
// cache and retry jitter is drawn per target (see mpd.retryDelay).
func TestGoldenNemesisTrace(t *testing.T) {
	cfg := nemesisTestConfig(t)
	var first string
	var firstShape string
	for _, sn := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				opts := DefaultOptions(42)
				opts.Supernodes = sn
				opts.Shards = shards
				pts, err := NemesisSweep(opts, cfg, workers)
				if err != nil {
					t.Fatalf("sn=%d shards=%d workers=%d: %v", sn, shards, workers, err)
				}
				csv := NemesisSheet(pts).CSV()
				if first == "" {
					first, firstShape = csv, fmt.Sprintf("sn=%d shards=%d workers=%d", sn, shards, workers)
					continue
				}
				if csv != first {
					t.Fatalf("sn=%d shards=%d workers=%d diverged from %s:\n--- first ---\n%s--- this run ---\n%s",
						sn, shards, workers, firstShape, first, csv)
				}
			}
		}
	}
	goldenCompare(t, "golden_nemesis.csv", first)
}

// TestNemesisShardRace composes a federation-splitting partition
// schedule, uniform link loss and supernode churn — membership shards
// dying, reviving and re-converging while the network is being cut —
// on a 3-shard world under the race detector, with the
// lookahead-safety check armed. Both renderings (the job-plane CSV
// and the membership-tier CSV, healing latency included) must match
// the single-shard run byte for byte.
func TestNemesisShardRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")
	cfg := nemesisTestConfig(t)
	cfg.Losses = []float64{0.2}
	cfg.PartDurs = []time.Duration{40 * time.Second}
	cfg.MTBFs = []time.Duration{90 * time.Second}
	cfg.Faults.MTTR = 45 * time.Second
	cfg.Jobs = 4
	cfg.Detect = 5 * time.Second
	cfg.BreakerThreshold = 3

	run := func(shards int) (string, string, NemesisPoint) {
		opts := DefaultOptions(99)
		opts.Supernodes = 4
		opts.Shards = shards
		pts, err := NemesisSweep(opts, cfg, 2)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return NemesisSheet(pts).CSV(), NemesisFederationSheet(pts).CSV(), pts[0]
	}

	seqCSV, seqFed, seqPt := run(1)
	shCSV, shFed, _ := run(3)
	if seqPt.Partitions < 2 {
		t.Fatalf("partition load too light to mean anything: %+v", seqPt)
	}
	if seqPt.FailuresInjected < 10 {
		t.Fatalf("churn load too light to mean anything: %d failures", seqPt.FailuresInjected)
	}
	if seqPt.RPCRetries == 0 {
		t.Fatalf("robustness layer never retried under 20%% loss: %+v", seqPt)
	}
	if shCSV != seqCSV {
		t.Fatalf("job-plane point diverged:\n--- seq ---\n%s--- sharded ---\n%s", seqCSV, shCSV)
	}
	if shFed != seqFed {
		t.Fatalf("membership-tier point diverged:\n--- seq ---\n%s--- sharded ---\n%s", seqFed, shFed)
	}
}

// TestNemesisZeroSpecIsFreeOfFaultState: a zero fault spec must leave
// the world's network untouched — the faults hook stays nil (simnet's
// TestZeroLinkFaultInstallsNothing) and the nemesis point at
// loss=0/partdur=0 reports a clean run. This is the
// cheap in-suite proxy for the acceptance bar that fault-free goldens
// stay byte-identical (which the other golden tests enforce directly:
// they never install fault state at all).
func TestNemesisZeroSpecIsFreeOfFaultState(t *testing.T) {
	var zero faults.Config
	if zero.Enabled() {
		t.Fatal("zero faults.Config claims to inject")
	}
	cfg := nemesisTestConfig(t)
	cfg.Losses = []float64{0}
	cfg.PartDurs = []time.Duration{0}
	pts, err := NemesisSweep(DefaultOptions(42), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Partitions != 0 || p.CutPairs != 0 || p.GrayEpisodes != 0 {
		t.Fatalf("fault-free point reports injections: %+v", p)
	}
	if p.SuccessRate != 1 {
		t.Fatalf("fault-free point lost jobs: %+v", p)
	}
	if p.RPCRetries != 0 || p.Rebooks != 0 {
		t.Fatalf("fault-free point needed recovery work: %+v", p)
	}
	if p.Inflation > 1.5 {
		t.Fatalf("fault-free inflation %.2f", p.Inflation)
	}
}

func TestNemesisPointsCSVShape(t *testing.T) {
	pts := []NemesisPoint{{
		Loss: 0.3, PartDurSeconds: 60, PartMTBFSeconds: 300,
		N: 6, R: 2, Jobs: 4, Hosts: 24, Succeeded: 3, Failed: 1,
		SuccessRate: 0.75, MeanSeconds: 80, Inflation: 1.33,
		Failovers: 2, HostsLost: 3, Rebooks: 2,
		Partitions: 5, PartitionSeconds: 290.5, CutPairs: 10,
		FailuresInjected: 7, SN: 4, RPCRetries: 31, BreakerSkips: 4,
		GrayEpisodes: 2, HealSamples: 4, HealMeanSeconds: 0.75, HealMaxSeconds: 1.25,
	}}
	csv := NemesisSheet(pts).CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV:\n%s", csv)
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Fatalf("row has %d fields, header %d:\n%s", got, want, csv)
	}
	fed := NemesisFederationSheet(pts).CSV()
	flines := strings.Split(strings.TrimSpace(fed), "\n")
	if len(flines) != 2 {
		t.Fatalf("federation CSV:\n%s", fed)
	}
	if got, want := len(strings.Split(flines[1], ",")), len(strings.Split(flines[0], ",")); got != want {
		t.Fatalf("federation row has %d fields, header %d:\n%s", got, want, fed)
	}
	if !strings.Contains(fed, ",4,31,4,") {
		t.Fatalf("federation CSV lost the membership counters:\n%s", fed)
	}
}

// nemesisBenchConfig is the acceptance point: 30% uniform loss plus
// 60-second federation-splitting partitions, unreplicated jobs, and a
// single re-book so the RPC robustness layer — not the scheduler's
// retry budget and not replication — is what recovers launches.
func nemesisBenchConfig(t *testing.T) NemesisConfig {
	return NemesisConfig{
		Base:       goldenBase(t),
		Strategies: []core.Strategy{core.Spread},
		Losses:     []float64{0.3},
		PartDurs:   []time.Duration{time.Minute},
		Faults:     faults.Config{PartMTBF: 90 * time.Second, Split: true},
		N:          6,
		Rs:         []int{1},
		Jobs:       10,
		JobSeconds: 60,
		Retries:    1,
		Detect:     10 * time.Second,
	}
}

// TestNemesisRetriesRecover runs the acceptance point twice, with the
// RPC robustness layer armed and disabled: the armed run must actually
// retry, the disabled one must not, and retries must recover at least
// the no-retry success rate.
func TestNemesisRetriesRecover(t *testing.T) {
	opts := DefaultOptions(42)
	opts.Supernodes = 4 // federated, so membership-plane retries run too
	cfg := nemesisBenchConfig(t)
	withPts, err := NemesisSweep(opts, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	noCfg := cfg
	noCfg.RPCRetries = -1
	noPts, err := NemesisSweep(opts, noCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	withPt, noPt := withPts[0], noPts[0]
	if withPt.RPCRetries == 0 {
		t.Fatalf("robustness layer never retried at 30%% loss: %+v", withPt)
	}
	if noPt.RPCRetries != 0 {
		t.Fatalf("disabled robustness layer still retried: %+v", noPt)
	}
	if withPt.SuccessRate < noPt.SuccessRate {
		t.Fatalf("retries lost ground: with %.2f vs without %.2f", withPt.SuccessRate, noPt.SuccessRate)
	}
	t.Logf("success with/without retries: %.2f/%.2f", withPt.SuccessRate, noPt.SuccessRate)
}
