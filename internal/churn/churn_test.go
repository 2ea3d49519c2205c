package churn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"p2pmpi/internal/faults"
	"p2pmpi/internal/vtime"
)

// These are the crash-kind properties of the fault timeline: host
// crashes and whole-site outages replayed by faults.Trace and
// faults.Driver through the Config and Driver this package names.

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

func crashTrace(hosts []string, cfg Config) []faults.Event {
	return faults.Trace(nil, hosts, siteOfTest, cfg)
}

// TestTraceDeterministicAndOrderFree is the replay property: a trace is
// a pure function of (seed, host set, config) — regenerating it, or
// generating it from a permuted host slice, yields the identical event
// sequence. quick.Check sweeps seeds.
func TestTraceDeterministicAndOrderFree(t *testing.T) {
	hosts := testHosts(9)
	prop := func(seed int64) bool {
		cfg := Config{
			Seed: seed, MTBF: 300 * time.Second, MTTR: 30 * time.Second,
			SiteMTBF: 1800 * time.Second, SiteMTTR: 120 * time.Second,
			Horizon: time.Hour,
		}
		a := crashTrace(hosts, cfg)
		if !reflect.DeepEqual(a, crashTrace(hosts, cfg)) {
			return false
		}
		shuffled := append([]string(nil), hosts...)
		rng := rand.New(rand.NewSource(seed ^ 7))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return reflect.DeepEqual(a, crashTrace(shuffled, cfg))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSorted(t *testing.T) {
	cfg := Config{Seed: 3, MTBF: 120 * time.Second, MTTR: 20 * time.Second,
		SiteMTBF: 600 * time.Second, Horizon: 2 * time.Hour}
	tr := crashTrace(testHosts(6), cfg)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	for i, ev := range tr {
		if i > 0 && ev.At < tr[i-1].At {
			t.Fatalf("unsorted at %d: %v after %v", i, ev, tr[i-1])
		}
		if ev.At < 0 || ev.At >= cfg.Horizon || ev.Kind != faults.EvCrash {
			t.Fatalf("event outside horizon or not a crash: %v", ev)
		}
	}
}

func TestTraceWarmupQuietPeriod(t *testing.T) {
	cfg := Config{Seed: 11, MTBF: 60 * time.Second, MTTR: 10 * time.Second,
		SiteMTBF: 10 * time.Minute, Warmup: 5 * time.Minute, Horizon: time.Hour}
	for _, ev := range crashTrace(testHosts(8), cfg) {
		if ev.On && ev.At < cfg.Warmup {
			t.Fatalf("failure %v struck inside the warmup window", ev)
		}
	}
}

// TestStopHaltsInjection: hooks must not fire after Stop, and a host
// still down at Stop is charged its downtime up to Stop.
func TestStopHaltsInjection(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	fired := 0
	var d *Driver = faults.NewDriver(dom, []faults.Event{
		{At: 10 * time.Second, Kind: faults.EvCrash, Host: "h0", On: true},
		{At: 40 * time.Second, Kind: faults.EvCrash, Host: "h1", On: true},
	}, faults.Hooks{Down: func(string) { fired++ }})
	d.Start()
	dom.RunFor(20 * time.Second)
	st := d.Stop()
	dom.RunFor(time.Minute)
	if fired != 1 || st.Failures != 1 {
		t.Fatalf("fired %d hooks, %d failures, want 1 (h1 was stopped out)", fired, st.Failures)
	}
	if st.Observed != 20*time.Second || st.HostDownTime != 10*time.Second {
		t.Fatalf("observed %v, down %v, want 20s and 10s", st.Observed, st.HostDownTime)
	}
	if again := d.Stop(); again != st {
		t.Fatalf("second Stop returned different stats: %+v vs %+v", again, st)
	}
}

// referenceTrace is the crash part of Trace as it was built before the
// generator was shared: a fresh rand.NewSource per host and per site,
// seeded from an FNV-1a hash of the concatenated label, and its own
// copy of the lifetime draw.
func referenceTrace(hosts []string, cfg Config) []faults.Event {
	cfg = cfg.Normalized()
	source := func(label string) *rand.Rand {
		h := fnv.New64a()
		h.Write([]byte(label))
		return rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64())))
	}
	draw := func(rng *rand.Rand, kind faults.DistKind, mean time.Duration) time.Duration {
		e := -math.Log(1 - rng.Float64())
		x := float64(mean) * e
		if kind == faults.DistWeibull {
			x = float64(mean) / math.Gamma(1+1/cfg.WeibullShape) * math.Pow(e, 1/cfg.WeibullShape)
		}
		if x < 0 || math.IsNaN(x) {
			x = 0
		}
		return time.Duration(x)
	}
	var out []faults.Event
	renew := func(rng *rand.Rand, mtbf, mttr time.Duration, emit func(time.Duration, bool)) {
		t := cfg.Warmup + draw(rng, cfg.UpDist, mtbf)
		for t < cfg.Horizon {
			emit(t, true)
			d := draw(rng, cfg.DownDist, mttr)
			if t+d >= cfg.Horizon {
				break
			}
			t += d
			emit(t, false)
			t += draw(rng, cfg.UpDist, mtbf)
		}
	}
	bySite := map[string][]string{}
	for _, h := range hosts {
		renew(source("host:"+h), cfg.MTBF, cfg.MTTR, func(at time.Duration, on bool) {
			out = append(out, faults.Event{At: at, Kind: faults.EvCrash, Host: h, On: on})
		})
		bySite[siteOfTest(h)] = append(bySite[siteOfTest(h)], h)
	}
	for s, members := range bySite {
		renew(source("site:"+s), cfg.SiteMTBF, cfg.SiteMTTR, func(at time.Duration, on bool) {
			for _, h := range members {
				out = append(out, faults.Event{At: at, Kind: faults.EvCrash, Host: h, Site: s, On: on})
			}
		})
	}
	return out
}

// TestTraceMatchesPerEntitySources: sharing one re-seeded generator
// across hosts and sites replays exactly the streams a fresh source per
// entity draws, for both lifetime families.
func TestTraceMatchesPerEntitySources(t *testing.T) {
	hosts := testHosts(40)
	for _, seed := range []int64{1, 42, 1234} {
		for _, dist := range []faults.DistKind{faults.DistExponential, faults.DistWeibull} {
			cfg := Config{Seed: seed, MTBF: 300 * time.Second, MTTR: 30 * time.Second,
				UpDist: dist, DownDist: dist,
				SiteMTBF: 1200 * time.Second, Warmup: time.Minute, Horizon: 2 * time.Hour}
			got, want := crashTrace(hosts, cfg), referenceTrace(hosts, cfg)
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("seed %d %s: %d events, reference %d", seed, dist, len(got), len(want))
			}
			// Trace's order is total, so the multisets agree iff every
			// reference event appears exactly as often.
			count := map[faults.Event]int{}
			for _, e := range want {
				count[e]++
			}
			for _, e := range got {
				if count[e]--; count[e] < 0 {
					t.Fatalf("seed %d %s: event %+v not in the reference trace", seed, dist, e)
				}
			}
		}
	}
}
