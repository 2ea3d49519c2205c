package exp

import (
	"fmt"
	"strings"
	"testing"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
)

func smallSynthSpec() grid.TopologySpec {
	return grid.TopologySpec{Kind: "synth", Sites: 3, HostsPerSite: 4, CoresPerHost: 2, Seed: 5}
}

func TestScaleSweepSmallWorld(t *testing.T) {
	cfg := ScaleConfig{Base: smallSynthSpec(), N: 8}
	pts, err := ScaleSweep(DefaultOptions(42), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(core.Strategies())
	if len(pts) != want {
		t.Fatalf("got %d points, want one per registered strategy (%d)", len(pts), want)
	}
	seen := map[core.Strategy]bool{}
	for _, p := range pts {
		seen[p.Strategy] = true
		if p.Hosts != 12 || p.Sites != 3 || p.Cores != 24 {
			t.Fatalf("world shape %+v", p)
		}
		if p.Seconds <= 0 {
			t.Fatalf("%s: non-positive completion time %v", p.Strategy, p.Seconds)
		}
		if p.HostsUsed < 1 || p.SitesUsed < 1 {
			t.Fatalf("%s: empty footprint %+v", p.Strategy, p)
		}
		if p.ReserveOK <= 0 {
			t.Fatalf("%s: no reservation traffic attributed", p.Strategy)
		}
		if p.ConflictRate < 0 || p.ConflictRate > 1 {
			t.Fatalf("%s: conflict rate %v", p.Strategy, p.ConflictRate)
		}
	}
	if len(seen) != want {
		t.Fatalf("duplicate strategies in %v", pts)
	}
	csv := ScaleSheet(pts).CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != want+1 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "strategy,hosts,") {
		t.Fatalf("CSV header %q", lines[0])
	}
	for _, p := range pts {
		if !strings.Contains(csv, string(p.Strategy)+",12,24,3,8,1,") {
			t.Fatalf("CSV missing row for %s:\n%s", p.Strategy, csv)
		}
	}
}

func TestScaleSweepHostAxisAndSubset(t *testing.T) {
	cfg := ScaleConfig{
		Base:       smallSynthSpec(),
		Strategies: []core.Strategy{core.Spread, core.CommAware},
		HostCounts: []int{6, 12},
		N:          4,
	}
	pts, err := ScaleSweep(DefaultOptions(7), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	// Ordered by host count, then configured strategy order.
	wantHosts := []int{6, 6, 12, 12}
	for i, p := range pts {
		if p.Hosts != wantHosts[i] {
			t.Fatalf("point %d hosts = %d, want %d (%+v)", i, p.Hosts, wantHosts[i], pts)
		}
	}
	if pts[0].Strategy != core.Spread || pts[1].Strategy != core.CommAware {
		t.Fatalf("strategy order %v, %v", pts[0].Strategy, pts[1].Strategy)
	}
}

func TestScaleSweepRejectsGrid5000(t *testing.T) {
	if _, err := ScaleSweep(DefaultOptions(1), ScaleConfig{Base: grid.TopologySpec{Kind: "grid5000"}}, 1); err == nil {
		t.Fatal("scale sweep accepted a non-synthetic base")
	}
}

func TestSyntheticWorldSubmit(t *testing.T) {
	// A synthetic world boots, the frontal learns every peer, and a
	// plain submission lands with the generalized frontal identity.
	opts := DefaultOptions(42)
	opts.Topology = grid.TopologySpec{Kind: "synth", Sites: 4, HostsPerSite: 6, CoresPerHost: 2, Seed: 11}
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	if w.FrontalID == FrontalHost {
		t.Fatalf("synthetic world reused the Grid5000 frontal ID %q", w.FrontalID)
	}
	res, err := w.Submit(mpd.JobSpec{Program: "hostname", N: 10, R: 1, Strategy: core.MinSites})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures() != 0 {
		t.Fatalf("%d failures", res.Failures())
	}
	if res.Assignment.Strategy != core.MinSites {
		t.Fatalf("assignment strategy %q", res.Assignment.Strategy)
	}
}

func TestBoundedSupernodeWorldSubmit(t *testing.T) {
	// With MaxPeersReturned below the job's demand, the submitter must
	// accumulate rotating reply windows across refreshes instead of
	// failing after one fetch on a world with ample hosts.
	opts := DefaultOptions(42)
	opts.Topology = grid.TopologySpec{Kind: "synth", Sites: 4, HostsPerSite: 6, CoresPerHost: 2, Seed: 3}
	opts.MaxPeersReturned = 8
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	res, err := w.Submit(mpd.JobSpec{Program: "hostname", N: 16, R: 1, Strategy: core.Spread})
	if err != nil {
		t.Fatalf("submit with bounded supernode replies: %v", err)
	}
	if res.Failures() != 0 {
		t.Fatalf("%d failures", res.Failures())
	}
	if got := res.Assignment.UsedHosts(); got < 9 {
		t.Fatalf("used %d hosts, want more than one reply window (8)", got)
	}
}

// scaleSlist derives an allocation-layer slist from a synthetic grid:
// the submitter-side view of a booked world at that scale.
func scaleSlist(hosts int) []core.HostSlot {
	g := grid.Synthetic(grid.TopologySpec{Kind: "synth", Sites: 12, Seed: 3,
		HostsPerSite: (hosts + 11) / 12, CoresPerHost: 2})
	slist := make([]core.HostSlot, 0, len(g.Hosts))
	for _, h := range g.Hosts {
		slist = append(slist, core.HostSlot{
			ID:      h.ID,
			Site:    h.Site,
			P:       h.Cores,
			Latency: g.SiteInfo[h.Site].RTTFromOrigin,
			Cores:   h.Cores,
		})
	}
	return slist
}

// BenchmarkScaleAllocate is the ScaleSweep micro-benchmark: every
// registered strategy allocating a 512-process job over synthetic
// slists of growing size.
func BenchmarkScaleAllocate(b *testing.B) {
	for _, hosts := range []int{1000, 5000, 10000} {
		slist := scaleSlist(hosts)
		for _, name := range core.Names() {
			st := core.Strategy(name)
			b.Run(fmt.Sprintf("%s/hosts=%d", name, hosts), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// core.Allocate, not Placement.Allocate: the timing
					// must include the registry dispatch and safety
					// validation every real submission pays.
					if _, err := core.Allocate(slist, 512, 1, st); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
