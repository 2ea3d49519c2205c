package exp

import (
	"strings"
	"testing"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Cluster != "grelon" || rows[0].Nodes != 60 || rows[0].Cores != 240 {
		t.Fatalf("first row = %+v", rows[0])
	}
	// The totals (350 hosts) are grid.TestTable1Totals'.
	out := Table1Sheet().CSV()
	for _, want := range []string{"grelon", "capricorn", "paravent", "bordereau",
		"idpot", "idcalc", "azur", "sol"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sheet missing %q:\n%s", want, out)
		}
	}
}

// bootedWorld caches one booted deployment per test run (booting 350
// daemons is the expensive part; submissions are cheap).
func bootedWorld(t *testing.T) *World {
	t.Helper()
	w := NewWorld(DefaultOptions(42))
	if err := w.Boot(); err != nil {
		w.Close()
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestConcentrateAllocationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full 350-peer grid")
	}
	w := bootedWorld(t)

	pts, err := CoAllocationSweep(w, core.Concentrate, []int{100, 250, 600})
	if err != nil {
		t.Fatal(err)
	}

	// n=100: concentrate stays entirely at nancy (25 hosts x 4 cores).
	p100 := pts[0]
	if p100.CoresBySite[grid.Nancy] != 100 {
		t.Errorf("n=100: nancy cores = %d, want 100 (%v)", p100.CoresBySite[grid.Nancy], p100.CoresBySite)
	}
	if p100.HostsBySite[grid.Nancy] != 25 {
		t.Errorf("n=100: nancy hosts = %d, want 25", p100.HostsBySite[grid.Nancy])
	}

	// n=250: nancy saturated (60 hosts / 240 cores), 10 processes spill
	// to the nearest other sites (the paper observed 5 lyon hosts).
	p250 := pts[1]
	if p250.HostsBySite[grid.Nancy] != 60 || p250.CoresBySite[grid.Nancy] != 240 {
		t.Errorf("n=250: nancy %d hosts / %d cores, want 60/240",
			p250.HostsBySite[grid.Nancy], p250.CoresBySite[grid.Nancy])
	}
	spill := 0
	for _, s := range []string{grid.Lyon, grid.Rennes, grid.Bordeaux} {
		spill += p250.CoresBySite[s]
	}
	if spill != 10 {
		t.Errorf("n=250: spill = %d cores at %v, want 10 near sites", spill, p250.CoresBySite)
	}
	if p250.CoresBySite[grid.Sophia] != 0 {
		t.Errorf("n=250: sophia used: %v", p250.CoresBySite)
	}

	// n=600: everything still totals 600 processes.
	p600 := pts[2]
	total := 0
	for _, c := range p600.CoresBySite {
		total += c
	}
	if total != 600 {
		t.Errorf("n=600: total = %d", total)
	}
}

func TestSpreadAllocationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full 350-peer grid")
	}
	w := bootedWorld(t)

	pts, err := CoAllocationSweep(w, core.Spread, []int{100, 400})
	if err != nil {
		t.Fatal(err)
	}

	// n=100: one process per host on the 100 closest hosts; nancy's 60
	// hosts all used, the rest at the nearest sites.
	p100 := pts[0]
	if p100.HostsBySite[grid.Nancy] != 60 || p100.CoresBySite[grid.Nancy] != 60 {
		t.Errorf("n=100: nancy %d hosts / %d cores, want 60/60",
			p100.HostsBySite[grid.Nancy], p100.CoresBySite[grid.Nancy])
	}
	totalHosts := 0
	for _, h := range p100.HostsBySite {
		totalHosts += h
	}
	if totalHosts != 100 {
		t.Errorf("n=100: used %d hosts, want 100", totalHosts)
	}
	if p100.HostsBySite[grid.Sophia] != 0 {
		t.Errorf("n=100: sophia used: %v", p100.HostsBySite)
	}

	// n=400 > 350 hosts: every host runs one process and the 50 extra
	// land on the closest multi-core hosts — nancy's stair (§5.1).
	p400 := pts[1]
	totalHosts = 0
	for _, h := range p400.HostsBySite {
		totalHosts += h
	}
	if totalHosts != 350 {
		t.Errorf("n=400: used %d hosts, want all 350", totalHosts)
	}
	if p400.CoresBySite[grid.Nancy] != 110 {
		t.Errorf("n=400: nancy cores = %d, want 110 (60 + 50 second processes)",
			p400.CoresBySite[grid.Nancy])
	}
}

func TestFig4EPPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full grid twice")
	}
	w := bootedWorld(t)
	conc, err := NASSweep(w, "ep-model-B", core.Concentrate, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := NASSweep(w, "ep-model-B", core.Spread, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	c, s := conc[0].Seconds, spread[0].Seconds
	if c <= 0 || s <= 0 {
		t.Fatalf("non-positive times: %v %v", c, s)
	}
	// Figure 4 left: spread is faster than concentrate at 32 processes.
	if s >= c {
		t.Errorf("EP at 32: spread %.2fs should beat concentrate %.2fs", s, c)
	}
}
