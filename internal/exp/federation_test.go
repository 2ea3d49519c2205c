package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/overlay"
)

// tinySynth parses the small fixed-seed world the federation tests run
// on: 3 sites × 8 hosts.
func tinySynth(t *testing.T) grid.TopologySpec {
	t.Helper()
	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFederatedWorldBoots: a K=4 federation on a small synthetic world
// boots, every member converges to the full merged membership, the
// owned shards partition the peers, and the submitter's view is as
// complete as in a standalone world.
func TestFederatedWorldBoots(t *testing.T) {
	opts := DefaultOptions(42)
	opts.Topology = tinySynth(t)
	opts.Supernodes = 4
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if len(w.SNs) != 4 || len(w.SNAddrs) != 4 {
		t.Fatalf("want 4 supernodes, have %d (%v)", len(w.SNs), w.SNAddrs)
	}
	world := len(w.Peers) + 1 // peers + frontal
	owned := 0
	for i, sn := range w.SNs {
		owned += sn.PeerCount()
		if got := sn.MergedCount(); got != world {
			t.Errorf("sn%d merged view has %d entries, want %d", i, got, world)
		}
	}
	if owned != world {
		t.Errorf("shards own %d entries in total, want %d (a peer is double- or un-registered)", owned, world)
	}
	// Every peer must live in its rendezvous home shard (nothing failed
	// over during a clean boot).
	for i, sn := range w.SNs {
		for _, id := range sn.OwnedIDs() {
			if home := overlay.ShardAssign(id, len(w.SNs)); home != i {
				t.Errorf("host %s registered at shard %d, home is %d", id, i, home)
			}
		}
	}
	if got := w.Frontal.Cache().Size(); got != len(w.Peers) {
		t.Errorf("frontal knows %d peers, want %d", got, len(w.Peers))
	}
	fed := w.FederationStats()
	if fed.GossipExchanges == 0 {
		t.Error("no gossip exchanges recorded")
	}
	if fed.StaleSamples == 0 {
		t.Error("no staleness samples recorded")
	}
	if fed.Fostered != 0 || fed.Redirects != 0 {
		t.Errorf("clean boot fostered %d / redirected %d registrations", fed.Fostered, fed.Redirects)
	}
}

// TestScaleCSVIdenticalAcrossFederationWidth is the federation's
// flagship determinism property (and the PR's acceptance criterion): on
// a small fixed-seed static world, a K=1 and a K=4 membership tier
// produce byte-identical scale-experiment CSVs. Placement cannot tell
// the tiers apart — the gossip staleness bound is tighter than anything
// the booking path observes — and the per-flow jitter streams keep the
// extra control traffic from perturbing data-plane timing.
func TestScaleCSVIdenticalAcrossFederationWidth(t *testing.T) {
	cfg := ScaleConfig{
		Base:       tinySynth(t),
		Strategies: []core.Strategy{core.Spread, core.Concentrate, "comm-aware"},
		N:          6,
	}
	csvAt := func(k int) string {
		t.Helper()
		c := cfg
		c.Supernodes = []int{k}
		pts, err := ScaleSweep(DefaultOptions(42), c, 1)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		return ScalePointsCSV(pts)
	}
	k1, k4 := csvAt(1), csvAt(4)
	if k1 != k4 {
		t.Fatalf("K=1 and K=4 scale CSVs differ:\n--- K=1 ---\n%s--- K=4 ---\n%s", k1, k4)
	}
	if !strings.Contains(k1, "spread") {
		t.Fatalf("CSV looks empty:\n%s", k1)
	}
}

// TestEmitFederationBenchJSON writes BENCH_federation.json — the
// membership tier's trajectory record, one point per commit in CI —
// when BENCH_FEDERATION_JSON names the output path. It sweeps a
// 2000-host world across federation widths K = 1/4/16 and records, per
// K, the numbers the federation is accountable for: mean registration
// latency, mean gossip propagation staleness, membership-plane bytes
// per submission window, completion time and the wall clock of the
// whole sweep.
func TestEmitFederationBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_FEDERATION_JSON")
	if out == "" {
		t.Skip("BENCH_FEDERATION_JSON not set")
	}
	base, err := grid.ParseTopologySpec("synth:S=8,H=250")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	pts, err := ScaleSweep(DefaultOptions(42), ScaleConfig{
		Base:       base,
		Strategies: []core.Strategy{core.Spread},
		HostCounts: []int{2000},
		Supernodes: []int{1, 4, 16},
		N:          64,
	}, DefaultWorkers())
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	type point struct {
		Name      string  `json:"name"`
		SN        int     `json:"sn"`
		Hosts     int     `json:"hosts"`
		Seconds   float64 `json:"seconds"`
		RegMS     float64 `json:"reg_ms"`
		StaleMS   float64 `json:"stale_ms"`
		MembBytes int64   `json:"memb_bytes"`
	}
	record := struct {
		Points      []point `json:"points"`
		WallSeconds float64 `json:"wall_seconds"`
	}{WallSeconds: wall.Seconds()}
	for _, p := range pts {
		record.Points = append(record.Points, point{
			Name:  "ScaleSweep/" + p.Strategy.String(),
			SN:    p.SN,
			Hosts: p.Hosts, Seconds: p.Seconds,
			RegMS: p.RegMS, StaleMS: p.StaleMS, MembBytes: p.MembBytes,
		})
	}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d points, sweep %.2fs wall", out, len(record.Points), wall.Seconds())
}

// TestChurnSweepOnFederatedWorld: the survivability family runs end to
// end on a federated world — StartChurn injects failures on the
// dedicated supernode hosts too, so registrations cross shards mid-
// sweep — and the batch still completes with jobs succeeding.
func TestChurnSweepOnFederatedWorld(t *testing.T) {
	opts := DefaultOptions(42)
	opts.Supernodes = 3
	pts, err := ChurnSweep(opts, ChurnConfig{
		Base:       tinySynth(t),
		Strategies: []core.Strategy{core.Spread},
		MTBFs:      []time.Duration{300 * time.Second},
		Rs:         []int{2},
		N:          6,
		Jobs:       3,
		JobSeconds: 40,
		MTTR:       time.Minute,
		Detect:     10 * time.Second,
	}, 1)
	if err != nil {
		t.Fatalf("federated churn sweep: %v", err)
	}
	if len(pts) != 1 || pts[0].Jobs != 3 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Succeeded == 0 {
		t.Fatalf("no job survived churn on the federated world: %+v", pts[0])
	}
	if pts[0].FailuresInjected == 0 {
		t.Fatalf("churn injected nothing: %+v", pts[0])
	}
}

// TestFederationSurvivesSupernodeDeath: killing one shard's supernode
// mid-world forces its peers through the cross-shard failover path; the
// surviving members still answer with a complete merged view, and after
// the revival the federation heals back to home-shard ownership.
func TestFederationSurvivesSupernodeDeath(t *testing.T) {
	opts := DefaultOptions(7)
	opts.Topology = tinySynth(t)
	opts.Supernodes = 3
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	world := len(w.Peers) + 1

	// Kill shard 1's host. Its peers keep running (the supernode host is
	// dedicated); their keep-alives and re-registrations must foster
	// them into surviving shards.
	victim := w.snHosts[1].id
	w.Net.FailHost(victim)
	// Two full re-register cycles: the alive loop re-registers every 5th
	// 30s tick.
	w.RunFor(6 * time.Minute)

	for _, i := range []int{0, 2} {
		if got := w.SNs[i].MergedCount(); got != world {
			t.Errorf("surviving sn%d merged view has %d entries, want %d", i, got, world)
		}
	}
	fostered := w.SNs[0].Stats().Fostered + w.SNs[2].Stats().Fostered
	if w.SNs[1].PeerCount() > 0 && fostered == 0 {
		t.Error("shard 1 died with peers but nobody fostered them")
	}

	// Revive. Peers drift home on their next full re-registration; the
	// foster entries expire by TTL and gossip propagates the removals.
	w.Net.RestoreHost(victim)
	w.RunFor(15 * time.Minute) // > TTL (10m) past the re-register

	for i, sn := range w.SNs {
		if got := sn.MergedCount(); got != world {
			t.Errorf("healed sn%d merged view has %d entries, want %d", i, got, world)
		}
	}
	// Ownership is back at the rendezvous homes.
	total := 0
	for _, sn := range w.SNs {
		total += sn.PeerCount()
	}
	if total != world {
		t.Errorf("after healing the shards own %d entries, want %d", total, world)
	}
}
