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
	// Boot is an all-pairs ping — 63 175 RPCs on this grid — and every
	// one of them is a chain of delivery events (transport.Call): what
	// Boot spawns is one registration actor per daemon plus a handful of
	// its own, where an actor per RPC made it more than 63 000; and an
	// exchange's garbage is a few closures and two conns, where the
	// coroutine, its queues and its mailbox push made Boot 6 661 mallocs
	// per host.
	w := NewWorld(DefaultOptions(42))
	t.Cleanup(w.Close)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := w.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	runtime.ReadMemStats(&ms1)
	hosts := len(w.Peers) + 1
	if spawned := w.S.Spawned(); spawned > 4*hosts {
		t.Fatalf("Boot spawned %d actors for %d daemons, want O(hosts)", spawned, hosts)
	}
	if perHost := float64(ms1.Mallocs-ms0.Mallocs) / float64(hosts); perHost > 4500 {
		t.Fatalf("Boot cost %.0f mallocs per host, want at most 4500", perHost)
	} else {
		t.Logf("Boot: %d actors, %.0f mallocs per host", w.S.Spawned(), perHost)
	}
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
