package faults

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

func siteOfTest(h string) string {
	// Two sites: even hosts east, odd hosts west.
	if (int(h[len(h)-1]-'0'))%2 == 0 {
		return "east"
	}
	return "west"
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

// The crash kind's twins of the trace properties below (determinism,
// order, warmup, per-entity sources, Stop) run in internal/churn's
// tests.

// TestTraceDeterministicAndOrderFree is the replay property: a trace is
// a pure function of (seed, site set, host set, config) — regenerating
// it, or generating it concurrently from permuted input slices, yields
// the identical event sequence. quick.Check sweeps seeds.
func TestTraceDeterministicAndOrderFree(t *testing.T) {
	sites, hosts := testSites(5), testHosts(12)
	prop := func(seed int64) bool {
		cfg := nemesisConfig(seed)
		want := Trace(sites, hosts, siteOfTest, cfg)
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
				results[i] = Trace(ss, hh, siteOfTest, cfg)
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
	tr := Trace(testSites(4), testHosts(8), nil, cfg)
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
	for _, ev := range Trace(testSites(4), testHosts(8), nil, cfg) {
		if ev.On && ev.At < cfg.Warmup {
			t.Fatalf("onset %v struck inside the warmup window", ev)
		}
	}
}

// TestCrashTracePinned fingerprints the crash timelines of an
// exponential, a Weibull and a site-outage model: the crash generator
// must keep replaying the exact failures it always has.
func TestCrashTracePinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		n    int
		want string
	}{
		{Config{Seed: 1, MTBF: 10 * time.Minute, MTTR: time.Minute, Horizon: 6 * time.Hour},
			2568, "714685f9be2910a4fa2f86023eda2c037a26c680e2e61da5a02195857052b811"},
		{Config{Seed: 2, MTBF: 20 * time.Minute, MTTR: 2 * time.Minute, UpDist: DistWeibull, DownDist: DistWeibull,
			WeibullShape: 0.6, Warmup: 5 * time.Minute, Horizon: 6 * time.Hour},
			1297, "4061dff6c20dca6cad4a2bb47f845bc508987632a6168fcabd207b972d0d7062"},
		{Config{Seed: 3, MTBF: time.Hour, SiteMTBF: 30 * time.Minute, SiteMTTR: 3 * time.Minute, Horizon: 6 * time.Hour},
			1534, "083335b8aa0727c6f0f875ed7e5b85afea44b2d4b6e2366d0abc3a036f5b6c94"},
	} {
		tr := Trace(nil, testHosts(40), siteOfTest, c.cfg)
		h := sha256.New()
		for _, ev := range tr {
			fmt.Fprintf(h, "%d %s %t %s\n", ev.At, ev.Host, ev.On, ev.Site)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); len(tr) != c.n || got != c.want {
			t.Errorf("seed %d: %d events hashing to %s, want %d to %s", c.cfg.Seed, len(tr), got, c.n, c.want)
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
	tr := Trace(sites, nil, nil, cfg)
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
	for _, ev := range Trace(nil, hosts, nil, cfg) {
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

// TestDriverRefCountsOverlappingCauses pins the dedup contract: a host
// that fails individually during a site-wide outage must produce one
// Down and one Up, the Up only after both causes cleared.
func TestDriverRefCountsOverlappingCauses(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	trace := []Event{
		{At: 10 * time.Second, Kind: EvCrash, Host: "h0", On: true, Site: "east"}, // site outage
		{At: 20 * time.Second, Kind: EvCrash, Host: "h0", On: true},               // own failure, overlapping
		{At: 30 * time.Second, Kind: EvCrash, Host: "h0", On: false, Site: "east"},
		{At: 50 * time.Second, Kind: EvCrash, Host: "h0", On: false},
		{At: 55 * time.Second, Kind: EvCrash, Host: "h1", On: false}, // spurious repair: h1 never failed
	}
	type tr struct {
		at   time.Duration
		down bool
	}
	var log []tr
	d := NewDriver(dom, trace, Hooks{
		Down: func(string) { log = append(log, tr{dom.Elapsed(), true}) },
		Up:   func(string) { log = append(log, tr{dom.Elapsed(), false}) },
	})
	d.Start()
	dom.RunFor(5 * time.Second)
	d.Start() // idempotent: a re-based second copy of the trace would delay the Up to 55s
	dom.RunFor(55 * time.Second)
	want := []tr{{10 * time.Second, true}, {50 * time.Second, false}}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("transitions %v, want %v", log, want)
	}
	st := d.Stop()
	if st.Failures != 1 || st.Restores != 1 || st.SiteOutages != 1 || st.HostDownTime != 40*time.Second {
		t.Fatalf("stats %+v", st)
	}
	if !d.Alive("h0") {
		t.Fatal("h0 should be alive after both causes cleared")
	}
}

// TestSiteOutageTakesWholeSiteDown checks correlation: every host of
// the struck site fails at the same instant.
func TestSiteOutageTakesWholeSiteDown(t *testing.T) {
	cfg := Config{Seed: 9, SiteMTBF: 600 * time.Second, SiteMTTR: 60 * time.Second,
		Horizon: 2 * time.Hour}
	byOnset := make(map[time.Duration]map[string]int) // at -> site -> hosts
	for _, ev := range Trace(nil, testHosts(8), siteOfTest, cfg) {
		if ev.Site == "" {
			t.Fatalf("host-level event %v with MTBF disabled", ev)
		}
		if ev.On {
			if byOnset[ev.At] == nil {
				byOnset[ev.At] = make(map[string]int)
			}
			byOnset[ev.At][ev.Site]++
		}
	}
	if len(byOnset) == 0 {
		t.Fatal("no site outages generated")
	}
	for at, sites := range byOnset {
		for site, hosts := range sites {
			if hosts != 4 {
				t.Fatalf("outage at %v struck %d hosts of %s, want all 4", at, hosts, site)
			}
		}
	}
}

// TestDistributionMeans checks the generators hit their configured
// means: exponential directly, Weibull via the Γ-corrected scale.
func TestDistributionMeans(t *testing.T) {
	const n = 20000
	mean := 100 * time.Second
	for _, kind := range []DistKind{DistExponential, DistWeibull} {
		rng := rand.New(rand.NewSource(42))
		var sum float64
		for i := 0; i < n; i++ {
			sum += draw(rng, kind, mean, 0.7).Seconds()
		}
		if got := sum / n; math.Abs(got-mean.Seconds()) > 0.05*mean.Seconds() {
			t.Fatalf("%s: empirical mean %.1fs, want ~%.0fs", kind, got, mean.Seconds())
		}
	}
}

// TestSteadyStateDownFraction replays a long exponential trace and
// checks the measured down fraction against MTTR/(MTBF+MTTR).
func TestSteadyStateDownFraction(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	cfg := Config{Seed: 5, MTBF: 100 * time.Second, MTTR: 10 * time.Second, Horizon: 3 * time.Hour}
	hosts := testHosts(9)
	d := NewDriver(dom, Trace(nil, hosts, nil, cfg), Hooks{})
	d.Start()
	dom.RunFor(cfg.Horizon)
	st := d.Stop()
	if st.Failures == 0 || st.Restores == 0 || st.Hosts != len(hosts) {
		t.Fatalf("stats %+v, want churn over %d hosts", st, len(hosts))
	}
	want := cfg.MTTR.Seconds() / (cfg.MTBF.Seconds() + cfg.MTTR.Seconds())
	if got := st.DownFraction(); math.Abs(got-want) > 0.03 {
		t.Fatalf("down fraction %.4f, want ~%.4f (±0.03)", got, want)
	}
}

// TestSetHostCountNormalizesDownFraction: DownFraction must divide by
// the platform size, not by the (possibly much smaller) set of hosts
// that happened to fail within the horizon.
func TestSetHostCountNormalizesDownFraction(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	d := NewDriver(dom, []Event{
		{At: 10 * time.Second, Kind: EvCrash, Host: "h0", On: true},
		{At: 40 * time.Second, Kind: EvCrash, Host: "h0", On: false},
	}, Hooks{})
	d.SetHostCount(10) // platform has 10 hosts; only one ever failed
	d.Start()
	dom.RunFor(time.Minute)
	want := 30.0 / (10 * 60.0)
	if got := d.Stop().DownFraction(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("down fraction %.4f, want %.4f (platform-normalized)", got, want)
	}
}

// TestTraceEmptyWithoutHorizon: a zero horizon generates nothing, and
// the constant-only knobs produce no timeline either.
func TestTraceEmptyWithoutHorizon(t *testing.T) {
	if tr := Trace(testSites(3), testHosts(3), siteOfTest, Config{Seed: 1, PartMTBF: time.Minute, MTBF: time.Minute}); tr != nil {
		t.Fatalf("zero horizon produced %d events", len(tr))
	}
	cfg := Config{Seed: 1, Loss: 0.3, LatMult: 2, DupProb: 0.1, Horizon: time.Hour}
	if tr := Trace(testSites(3), testHosts(3), siteOfTest, cfg); len(tr) != 0 {
		t.Fatalf("constant-only config produced %d events", len(tr))
	}
}

// referenceTrace is Trace as it was built before the generator was
// shared: a fresh rand.NewSource for the partition process and per gray
// host, seeded from an FNV-1a hash of the concatenated label.
func referenceTrace(sites, hosts []string, cfg Config) []Event {
	cfg = cfg.withDefaults()
	source := func(label string) *rand.Rand {
		h := fnv.New64a()
		h.Write([]byte(label))
		return rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64())))
	}
	var out []Event
	renew := func(rng *rand.Rand, mtbf, mttr time.Duration, emit func(time.Duration, bool)) {
		for t := cfg.Warmup + draw(rng, "", mtbf, 0); t < cfg.Horizon; t += draw(rng, "", mtbf, 0) {
			emit(t, true)
			d := draw(rng, "", mttr, 0)
			if t+d >= cfg.Horizon {
				break
			}
			t += d
			emit(t, false)
		}
	}
	ss := append([]string(nil), sites...)
	sort.Strings(ss)
	rng := source("part")
	var pairs [][2]string
	renew(rng, cfg.PartMTBF, cfg.PartMTTR, func(at time.Duration, on bool) {
		if on {
			pairs = drawCut(rng, ss, cfg.Split)
		}
		for _, p := range pairs {
			out = append(out, Event{At: at, Kind: EvPartition, A: p[0], B: p[1], On: on})
		}
	})
	for _, h := range hosts {
		if rng := source("gray:" + h); rng.Float64() < cfg.GrayFrac {
			renew(rng, cfg.GrayMTBF, cfg.GrayMTTR, func(at time.Duration, on bool) {
				out = append(out, Event{At: at, Kind: EvGray, Host: h, On: on})
			})
		}
	}
	return out
}

// TestTraceMatchesPerEntitySources: sharing one re-seeded generator
// across every process replays exactly the streams a fresh source per
// entity draws (the crash processes are checked in internal/churn), and
// no longer costs a source (two allocations, 4.9 KB) per host: a quiet
// 1000-host trace allocates only a handful of times.
func TestTraceMatchesPerEntitySources(t *testing.T) {
	sites, hosts := testSites(6), testHosts(40)
	for _, seed := range []int64{1, 42, 1234} {
		cfg := nemesisConfig(seed)
		got := Trace(sites, hosts, nil, cfg)
		want := referenceTrace(sites, hosts, cfg)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("seed %d: %d events, reference %d", seed, len(got), len(want))
		}
		// Trace's order is total, so the multisets agree iff every
		// reference event appears exactly as often.
		count := map[Event]int{}
		for _, e := range want {
			count[e]++
		}
		for _, e := range got {
			if count[e]--; count[e] < 0 {
				t.Fatalf("seed %d: event %+v not in the reference trace", seed, e)
			}
		}
	}

	many := testHosts(1000)
	quiet := nemesisConfig(9)
	quiet.GrayMTBF, quiet.PartMTBF, quiet.MTBF, quiet.SiteMTBF = 1000*time.Hour, 1000*time.Hour, 1000*time.Hour, 1000*time.Hour
	if allocs := testing.AllocsPerRun(5, func() { Trace(sites, many, siteOfTest, quiet) }); allocs > 64 {
		t.Fatalf("a 1000-host trace allocated %.0f times, want ≤ 64", allocs)
	}
}
