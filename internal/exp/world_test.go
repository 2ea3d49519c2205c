package exp

import (
	"math"
	"runtime"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
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
	progs := Programs()
	for _, name := range []string{"hostname", "ep-model-B", "is-model-B"} {
		if progs[name] == nil {
			t.Fatalf("program %q missing", name)
		}
	}
}

// TestMembershipDiet: the host-list bound is four booking fan-outs with
// a floor of 512, peers refresh hourly and keep two cache entries, and
// a knob the caller already set wins.
func TestMembershipDiet(t *testing.T) {
	for _, c := range []struct {
		fanout, maxPeers int
	}{{6, 512}, {1000, 4 * 1202}} {
		o := DefaultOptions(1)
		o.membershipDiet(c.fanout)
		if o.MaxPeersReturned != c.maxPeers || o.PeerRefreshInterval != time.Hour || o.PeerCacheCap != 2 {
			t.Errorf("fan-out %d: MaxPeersReturned %d, PeerRefreshInterval %v, PeerCacheCap %d; want %d, 1h, 2",
				c.fanout, o.MaxPeersReturned, o.PeerRefreshInterval, o.PeerCacheCap, c.maxPeers)
		}
	}
	o := DefaultOptions(1)
	o.MaxPeersReturned, o.PeerRefreshInterval, o.PeerCacheCap = 7, time.Minute, 5
	o.membershipDiet(1000)
	if o.MaxPeersReturned != 7 || o.PeerRefreshInterval != time.Minute || o.PeerCacheCap != 5 {
		t.Errorf("caller's knobs overwritten: %d, %v, %d", o.MaxPeersReturned, o.PeerRefreshInterval, o.PeerCacheCap)
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
	// one of them is a chain of delivery events (transport.Call), as is
	// every registration, every Start and the warm-up fetch: Boot spawns
	// no actor at all, where an actor per RPC made it more than 63 000
	// and an actor per registration 706. An exchange's garbage is one
	// record per role (about 1 300 mallocs per host); closures and
	// separate conns, streams and deadlines made it 3 800, and the
	// coroutine, its queues and its mailbox push 6 661.
	w := NewWorld(DefaultOptions(42))
	t.Cleanup(w.Close)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := w.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	runtime.ReadMemStats(&ms1)
	hosts := len(w.Peers) + 1
	if spawned := w.S.Spawned(); spawned != 0 {
		t.Fatalf("Boot spawned %d actors for %d daemons, want none", spawned, hosts)
	}
	if perHost := float64(ms1.Mallocs-ms0.Mallocs) / float64(hosts); perHost > 2700 {
		t.Fatalf("Boot cost %.0f mallocs per host, want at most 2700", perHost)
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
	// loop is parked anywhere, and the supernode's sweep is a timer chain.
	w.RunFor(5 * time.Second)
	if n := w.S.Actors(); n != 0 {
		t.Fatalf("%d actors at quiesce, want none", n)
	}
}

// TestIdleWorldEventRateFlat is the world-level leak guard: an idle
// world's periodic work (keep-alives, refreshes, pings, the supernode
// sweep) costs the same number of events every virtual hour. A timer
// chain that multiplies in any layer — a tick that re-arms beside a
// twin already queued, say — makes the rate climb with the horizon.
func TestIdleWorldEventRateFlat(t *testing.T) {
	spec, err := grid.ParseTopologySpec("synth:S=2,H=16")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(42)
	opts.Topology = spec
	opts.Supernodes = 1
	w := NewWorld(opts)
	t.Cleanup(w.Close)
	if err := w.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	perHour := make([]int, 6)
	for h := range perHour {
		before := w.S.Dispatched()
		w.RunFor(time.Hour)
		perHour[h] = w.S.Dispatched() - before
	}
	t.Logf("events per virtual hour: %v", perHour)
	if second, last := perHour[1], perHour[5]; math.Abs(float64(last-second)) > 0.1*float64(second) {
		t.Fatalf("idle world fired %d events in hour 2 and %d in hour 6, want within 10%%", second, last)
	}
}

// TestShutdownLeavesNoGoroutines: actors are coroutines that Shutdown
// unwinds synchronously, so Close returning means every goroutine of the
// world is gone, not merely told to go. A booted world parks no actor,
// so the test closes it with a job mid-run: the submitter and every
// process are parked.
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
	w.S.Go("exp.submit", func() {
		w.Frontal.Submit(mpd.JobSpec{Program: "spin", Args: []string{"600"}, N: 8, R: 1, Strategy: core.Spread})
	})
	w.RunFor(time.Minute)
	booted := runtime.NumGoroutine()
	w.Close()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before NewWorld, %d booted, %d right after Close", before, booted, after)
	}
	if booted <= before {
		t.Fatal("no actor was parked in the world: nothing was tested")
	}
}

// TestSteadyStateSpawnsNothing: only processes of the simulated system
// are actors. A federated world under churn, loss and a partition spell,
// with RPC retries and the breaker armed, runs ten virtual minutes
// without a job: every keep-alive, refresh, re-registration, retry,
// failover, breaker skip, gossip round and sweep is an event chain, so
// the window spawns nothing — while each of those paths demonstrably ran.
func TestSteadyStateSpawnsNothing(t *testing.T) {
	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(42)
	opts.Topology = spec
	opts.Supernodes = 4
	opts.RPCRetries = 2
	opts.BreakerThreshold = 2
	w := NewWorld(opts)
	t.Cleanup(w.Close)
	if err := w.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	const window = 10 * time.Minute
	before := w.S.Spawned()
	w.StartFaults(faults.Config{
		Seed: 5, Loss: 0.1,
		PartMTBF: 90 * time.Second, PartMTTR: 40 * time.Second, Split: true,
		Horizon: window,
	})
	w.StartChurn(faults.Config{Seed: 6, MTBF: 10 * time.Minute, MTTR: time.Minute, Horizon: window})
	w.RunFor(window)
	if n := w.S.Spawned() - before; n != 0 {
		t.Fatalf("%d actors spawned in a steady state with no jobs, want none", n)
	}
	var st mpd.Stats
	for _, p := range append([]*mpd.MPD{w.Frontal}, w.Peers...) {
		ps := p.Stats()
		st.Registrations += ps.Registrations
		st.RPCRetries += ps.RPCRetries
		st.SNFailovers += ps.SNFailovers
		st.SNRedirects += ps.SNRedirects
		st.BreakerSkips += ps.BreakerSkips
	}
	gossip := w.FederationStats().GossipExchanges
	t.Logf("%+v, %d gossip exchanges", st, gossip)
	if st.Registrations == 0 || st.RPCRetries == 0 || st.SNFailovers+st.SNRedirects == 0 ||
		st.BreakerSkips == 0 || gossip == 0 {
		t.Fatalf("a ported path never ran: %+v, %d gossip exchanges", st, gossip)
	}
}
