package faults

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"p2pmpi/internal/vtime"
)

func testSites(n int) []string {
	sites := make([]string, n)
	for i := range sites {
		sites[i] = fmt.Sprintf("s%02d", i)
	}
	return sites
}

func testHosts(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%02d", i)
	}
	return hosts
}

func nemesisConfig(seed int64) Config {
	return Config{
		Seed:     seed,
		PartMTBF: 10 * time.Minute, PartMTTR: time.Minute, Split: true,
		GrayFrac: 0.4, GrayMTBF: 5 * time.Minute, GrayMTTR: 30 * time.Second,
		GrayDrop: 0.5, GraySlow: 2,
		Horizon: 2 * time.Hour,
	}
}

// TestTraceDeterministicAndOrderFree is the replay property: a trace is
// a pure function of (seed, site set, host set, config) — regenerating
// it, or generating it concurrently from permuted input slices, yields
// the identical event sequence. quick.Check sweeps seeds.
func TestTraceDeterministicAndOrderFree(t *testing.T) {
	sites, hosts := testSites(5), testHosts(12)
	prop := func(seed int64) bool {
		cfg := nemesisConfig(seed)
		want := Trace(sites, hosts, cfg)
		// Eight concurrent generations from independently permuted
		// inputs: any order dependence or shared hidden state between
		// the per-entity RNGs shows up as a diverging replica.
		results := make([][]Event, 8)
		done := make(chan int)
		for i := range results {
			go func(i int) {
				rng := rand.New(rand.NewSource(seed ^ int64(i*2654435761)))
				ss := append([]string(nil), sites...)
				hh := append([]string(nil), hosts...)
				rng.Shuffle(len(ss), func(a, b int) { ss[a], ss[b] = ss[b], ss[a] })
				rng.Shuffle(len(hh), func(a, b int) { hh[a], hh[b] = hh[b], hh[a] })
				results[i] = Trace(ss, hh, cfg)
				done <- i
			}(i)
		}
		for range results {
			<-done
		}
		for _, got := range results {
			if !reflect.DeepEqual(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSortedAndBounded(t *testing.T) {
	cfg := nemesisConfig(3)
	tr := Trace(testSites(4), testHosts(8), cfg)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].At < tr[i-1].At {
			t.Fatalf("unsorted at %d: %v after %v", i, tr[i], tr[i-1])
		}
	}
	for _, ev := range tr {
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Fatalf("event outside horizon: %v", ev)
		}
		if ev.Kind == EvPartition && ev.A >= ev.B {
			t.Fatalf("uncanonical pair: %v", ev)
		}
	}
}

func TestTraceWarmupQuietPeriod(t *testing.T) {
	cfg := nemesisConfig(11)
	cfg.Warmup = 20 * time.Minute
	for _, ev := range Trace(testSites(4), testHosts(8), cfg) {
		if ev.On && ev.At < cfg.Warmup {
			t.Fatalf("onset %v struck inside the warmup window", ev)
		}
	}
}

// TestSplitCutsBisectThePlatform: with Split, every episode's cut set
// must be exactly island × complement for some non-trivial bisection —
// the cut that severs a spread-out federation into two worlds.
func TestSplitCutsBisectThePlatform(t *testing.T) {
	sites := testSites(5)
	cfg := Config{Seed: 7, PartMTBF: 5 * time.Minute, PartMTTR: 30 * time.Second,
		Split: true, Horizon: 4 * time.Hour}
	tr := Trace(sites, nil, cfg)
	byOnset := map[time.Duration][][2]string{}
	for _, ev := range tr {
		if ev.Kind == EvPartition && ev.On {
			byOnset[ev.At] = append(byOnset[ev.At], [2]string{ev.A, ev.B})
		}
	}
	if len(byOnset) == 0 {
		t.Fatal("no partition episodes generated")
	}
	for at, pairs := range byOnset {
		// Recover the island containing sites[0] from the pair set and
		// check the cut is exactly island × complement.
		cut := map[[2]string]bool{}
		for _, p := range pairs {
			cut[p] = true
		}
		island := map[string]bool{sites[0]: true}
		for _, s := range sites[1:] {
			if !cut[pairOf(sites[0], s)] {
				island[s] = true
			}
		}
		if len(island) == len(sites) {
			t.Fatalf("episode at %v cut nothing reachable from %s", at, sites[0])
		}
		want := 0
		for _, a := range sites {
			for _, b := range sites {
				if a < b && island[a] != island[b] {
					want++
					if !cut[pairOf(a, b)] {
						t.Fatalf("episode at %v is not a bisection: %s↔%s uncut", at, a, b)
					}
				}
			}
		}
		if len(cut) != want {
			t.Fatalf("episode at %v cut %d pairs, bisection needs %d", at, len(cut), want)
		}
	}
}

// TestGrayFracSelectsSeededSubset: the gray candidate set is a seeded
// per-host property — roughly GrayFrac of the hosts, identical across
// regenerations.
func TestGrayFracSelectsSeededSubset(t *testing.T) {
	hosts := testHosts(200)
	cfg := Config{Seed: 21, GrayFrac: 0.3, GrayMTBF: 10 * time.Minute,
		GrayMTTR: time.Minute, GrayDrop: 0.5, Horizon: 6 * time.Hour}
	grayHosts := map[string]bool{}
	for _, ev := range Trace(nil, hosts, cfg) {
		if ev.Kind == EvGray {
			grayHosts[ev.Host] = true
		}
	}
	frac := float64(len(grayHosts)) / float64(len(hosts))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("gray fraction %.2f, want ~0.3", frac)
	}
}

// TestDriverRefCountsOverlappingCuts pins the dedup contract: a pair
// cut by two overlapping episodes fires one Partition(on) and one
// Partition(off), the off only after both episodes ended.
func TestDriverRefCountsOverlappingCuts(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	trace := []Event{
		{At: 10 * time.Second, Kind: EvPartition, A: "a", B: "b", On: true},
		{At: 20 * time.Second, Kind: EvPartition, A: "a", B: "b", On: true},
		{At: 30 * time.Second, Kind: EvPartition, A: "a", B: "b", On: false},
		{At: 50 * time.Second, Kind: EvPartition, A: "a", B: "b", On: false},
		{At: 55 * time.Second, Kind: EvPartition, A: "a", B: "c", On: false}, // spurious heal: a-c was never cut
	}
	type tr struct {
		at time.Duration
		on bool
	}
	var log []tr
	var healed []time.Duration
	d := NewDriver(dom, trace, Hooks{
		Partition: func(a, b string, on bool) { log = append(log, tr{dom.Elapsed(), on}) },
		Healed:    func(start, end time.Time) { healed = append(healed, end.Sub(start)) },
	})
	d.Start()
	dom.RunFor(5 * time.Second)
	d.Start() // idempotent: a re-based second copy of the trace would delay the heal to 55s
	dom.RunFor(55 * time.Second)
	want := []tr{{10 * time.Second, true}, {50 * time.Second, false}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("transitions %v, want %v", log, want)
	}
	if !reflect.DeepEqual(healed, []time.Duration{40 * time.Second}) {
		t.Fatalf("healed spells %v, want [40s]", healed)
	}
	st := d.Stop()
	if st.Partitions != 1 || st.CutPairs != 1 || st.PartitionTime != 40*time.Second {
		t.Fatalf("stats %+v", st)
	}
	if d.Cut("b", "a") {
		t.Fatal("pair should be healed")
	}
}

// TestDriverGrayAndStop: gray hooks replay, Stop halts injection and
// settles an open partition spell.
func TestDriverGrayAndStop(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	trace := []Event{
		{At: 5 * time.Second, Kind: EvGray, Host: "h0", On: true},
		{At: 10 * time.Second, Kind: EvPartition, A: "a", B: "b", On: true},
		{At: 40 * time.Second, Kind: EvGray, Host: "h0", On: false},
	}
	var grayLog []bool
	d := NewDriver(dom, trace, Hooks{
		Gray: func(host string, on bool) { grayLog = append(grayLog, on) },
	})
	d.Start()
	dom.RunFor(20 * time.Second)
	if !d.Gray("h0") || !d.Cut("a", "b") {
		t.Fatal("mid-run state not visible")
	}
	st := d.Stop()
	dom.RunFor(time.Minute)
	if !reflect.DeepEqual(grayLog, []bool{true}) {
		t.Fatalf("gray transitions %v, want [true] (the off was stopped out)", grayLog)
	}
	if st.GrayEpisodes != 1 || st.Partitions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.PartitionTime != 10*time.Second {
		t.Fatalf("open spell charged %v, want 10s", st.PartitionTime)
	}
	if st.Observed != 20*time.Second {
		t.Fatalf("observed %v, want 20s", st.Observed)
	}
	if again := d.Stop(); again != st {
		t.Fatalf("second Stop returned different stats: %+v vs %+v", again, st)
	}
}

// TestTraceEmptyWithoutHorizon: a zero horizon generates nothing, and
// the constant-only knobs produce no timeline either.
func TestTraceEmptyWithoutHorizon(t *testing.T) {
	if tr := Trace(testSites(3), testHosts(3), Config{Seed: 1, PartMTBF: time.Minute}); tr != nil {
		t.Fatalf("zero horizon produced %d events", len(tr))
	}
	cfg := Config{Seed: 1, Loss: 0.3, LatMult: 2, DupProb: 0.1, Horizon: time.Hour}
	if tr := Trace(testSites(3), testHosts(3), cfg); len(tr) != 0 {
		t.Fatalf("constant-only config produced %d events", len(tr))
	}
}
