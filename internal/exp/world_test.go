package exp

import (
	"runtime"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/nas"
)

func TestWorldConstruction(t *testing.T) {
	w := NewWorld(DefaultOptions(1))
	defer w.Close()
	if len(w.Peers) != 350 {
		t.Fatalf("peers = %d, want 350", len(w.Peers))
	}
	if w.Grid.TotalCores() != 1040 {
		t.Fatalf("cores = %d", w.Grid.TotalCores())
	}
	// Every peer must advertise P = its core count (§5).
	counts := map[string]int{}
	for _, h := range w.Grid.Hosts {
		counts[h.ID] = h.Cores
	}
	_ = counts
}

func TestProgramsRegistry(t *testing.T) {
	progs := Programs(nas.DefaultCostModel())
	for _, name := range []string{"hostname", "ep-model-B", "is-model-B"} {
		if progs[name] == nil {
			t.Fatalf("program %q missing", name)
		}
	}
}

func TestDefaultNs(t *testing.T) {
	ns := DefaultFig23Ns()
	if len(ns) != 11 || ns[0] != 100 || ns[10] != 600 {
		t.Fatalf("fig2/3 ns = %v", ns)
	}
	if got := DefaultFig4EPNs(); len(got) != 5 || got[4] != 512 {
		t.Fatalf("fig4 EP ns = %v", got)
	}
	if got := DefaultFig4ISNs(); len(got) != 3 || got[2] != 128 {
		t.Fatalf("fig4 IS ns = %v", got)
	}
}

func TestSubmitUnknownProgramFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full grid")
	}
	w := bootedWorld(t)
	if _, err := w.Submit(mpd.JobSpec{Program: "nope", N: 1, R: 1}); err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestReplicatedHostnameOnGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full grid")
	}
	w := bootedWorld(t)
	res, err := w.Submit(mpd.JobSpec{
		Program: "hostname", N: 100, R: 2, Strategy: core.Spread,
		Timeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatalf("replicated job: %v", err)
	}
	if res.Failures() != 0 || len(res.Results) != 200 {
		t.Fatalf("failures=%d results=%d", res.Failures(), len(res.Results))
	}
	// Replica-distinctness at grid scale.
	byRank := map[int]map[string]bool{}
	for _, r := range res.Results {
		if byRank[r.Rank] == nil {
			byRank[r.Rank] = map[string]bool{}
		}
		host := string(r.Output)
		if byRank[r.Rank][host] {
			t.Fatalf("rank %d has two replicas on %s", r.Rank, host)
		}
		byRank[r.Rank][host] = true
	}

	// Quiesce. The all-pairs boot, the launch and 200 MPI processes with
	// their heartbeat plane were all served from delivery events: no
	// mpd.conn / rs.conn / supernode.conn / mpi.pump reader and no accept
	// loop is parked anywhere. What is left is the supernode's sweep loop.
	w.RunFor(5 * time.Second)
	if n := w.S.Actors(); n != 1 {
		t.Fatalf("%d actors at quiesce, want 1 (supernode.sweep)", n)
	}
}

// TestShutdownLeavesNoGoroutines: actors are coroutines that Shutdown
// unwinds synchronously, so Close returning means every daemon goroutine
// of the world is gone, not merely told to go.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full grid")
	}
	before := runtime.NumGoroutine()
	w := NewWorld(DefaultOptions(42))
	if err := w.Boot(); err != nil {
		w.Close()
		t.Fatalf("boot: %v", err)
	}
	booted := runtime.NumGoroutine()
	w.Close()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before NewWorld, %d booted, %d right after Close", before, booted, after)
	}
	if booted <= before {
		t.Fatal("no actor was parked in the booted world: nothing was tested")
	}
}
