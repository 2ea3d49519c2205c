package exp

import (
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// churnOnly narrows cfg to the churn family, as gridbench's -exp churn
// builds it: one loss-0, partition-free point and the RPC retry layer
// off, so host churn is the only fault.
func churnOnly(cfg NemesisConfig) NemesisConfig {
	cfg.Losses = []float64{0}
	cfg.PartDurs = []time.Duration{0}
	cfg.RPCRetries = -1
	return cfg
}

// churnTestConfig is the shared tiny-world sweep used by the
// determinism and survivability tests: 72 hosts, short jobs, an MTBF
// low enough that failures reliably strike mid-run, and a retry budget
// tight enough that re-booking cannot always save an unreplicated job
// (with generous retries the scheduler masks R=1 losses, and the
// replication contrast the tests pin would vanish).
func churnTestConfig() NemesisConfig {
	return churnOnly(NemesisConfig{
		Base:       grid.TopologySpec{Kind: "synth", Sites: 3, HostsPerSite: 24, CoresPerHost: 2, Seed: 5},
		Strategies: []core.Strategy{core.Spread},
		MTBFs:      []time.Duration{240 * time.Second},
		Rs:         []int{1, 2},
		N:          8,
		Jobs:       4,
		JobSeconds: 60,
		Retries:    1,
	})
}

// TestChurnPresetDeterministicAcrossWorkers is the replay property: a
// seeded churn trace — failures, failovers, and the resulting CSV —
// must be byte-identical whatever the pool width.
func TestChurnPresetDeterministicAcrossWorkers(t *testing.T) {
	cfg := churnTestConfig()
	opts := DefaultOptions(42)
	sequential, err := NemesisSweep(opts, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NemesisSweep(opts, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	csvSeq, csvPar := ChurnSheet(sequential).CSV(), ChurnSheet(parallel).CSV()
	if csvSeq != csvPar {
		t.Fatalf("churn sweep depends on worker count:\nworkers=1:\n%s\nworkers=4:\n%s", csvSeq, csvPar)
	}
	// And a full re-run replays the same timeline.
	again, err := NemesisSweep(opts, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ChurnSheet(again).CSV() != csvSeq {
		t.Fatalf("churn sweep is not a pure function of its seed")
	}
}

// TestChurnReplicationImprovesSurvival is the acceptance property:
// under aggressive churn, R=1 jobs must die (success < 100%) and R=2
// must measurably beat R=1 — replica failover actually engaging.
func TestChurnReplicationImprovesSurvival(t *testing.T) {
	pts, err := NemesisSweep(DefaultOptions(42), churnTestConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (R=1, R=2)", len(pts))
	}
	r1, r2 := pts[0], pts[1]
	if r1.R != 1 || r2.R != 2 {
		t.Fatalf("point order %+v", pts)
	}
	if r1.FailuresInjected == 0 || r2.FailuresInjected == 0 {
		t.Fatalf("no churn injected: %+v", pts)
	}
	if r1.SuccessRate >= 1.0 {
		t.Fatalf("R=1 success rate %.2f under mtbf=%gs churn — failures never bit",
			r1.SuccessRate, r1.MTBFSeconds)
	}
	if r2.SuccessRate <= r1.SuccessRate {
		t.Fatalf("replication did not help: R=1 %.2f vs R=2 %.2f",
			r1.SuccessRate, r2.SuccessRate)
	}
	if r2.Failovers == 0 {
		t.Fatalf("R=2 succeeded without a single failover — replication was never exercised: %+v", r2)
	}
	// R=1 cannot fail over (there is no backup); its failures surface
	// as re-booked attempts and wasted slot-hours instead.
	if r1.Failovers != 0 {
		t.Fatalf("R=1 reported %d failovers", r1.Failovers)
	}
	if r1.Rebooks == 0 || r1.WastedSlotHours == 0 {
		t.Fatalf("R=1 failures produced no re-book accounting: %+v", r1)
	}
}

func TestNemesisRejectsBadMTBF(t *testing.T) {
	cfg := NemesisConfig{Base: smallSynthSpec(), MTBFs: []time.Duration{-time.Minute}}
	_, err := NemesisSweep(DefaultOptions(1), cfg, 1)
	if err == nil || !strings.Contains(err.Error(), "MTBF") {
		t.Fatalf("negative MTBF not rejected: %v", err)
	}
}

func TestChurnPointsCSVShape(t *testing.T) {
	pts := []NemesisPoint{{
		Strategy: core.Spread, MTBFSeconds: 600, MTTRSeconds: 60,
		N: 8, R: 2, Jobs: 4, Hosts: 72, Succeeded: 3, Failed: 1,
		SuccessRate: 0.75, MeanSeconds: 80, Inflation: 1.33,
		Failovers: 2, HostsLost: 3, Rebooks: 2, WastedSlotHours: 0.5,
		FailuresInjected: 11, DownFraction: 0.09,
	}}
	csv := ChurnSheet(pts).CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV:\n%s", csv)
	}
	if !strings.HasPrefix(lines[0], "strategy,mtbf_s,mttr_s,") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "spread,600,60,8,2,4,72,3,1,0.7500,") {
		t.Fatalf("row %q", lines[1])
	}
}
