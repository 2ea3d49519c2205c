package churn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"p2pmpi/internal/vtime"
)

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
		a := Trace(hosts, siteOfTest, cfg)
		b := Trace(hosts, siteOfTest, cfg)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		shuffled := append([]string(nil), hosts...)
		rng := rand.New(rand.NewSource(seed ^ 7))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		c := Trace(shuffled, siteOfTest, cfg)
		return reflect.DeepEqual(a, c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSorted(t *testing.T) {
	cfg := Config{Seed: 3, MTBF: 120 * time.Second, MTTR: 20 * time.Second,
		SiteMTBF: 600 * time.Second, Horizon: 2 * time.Hour}
	tr := Trace(testHosts(6), siteOfTest, cfg)
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
	}
}

func TestTraceWarmupQuietPeriod(t *testing.T) {
	cfg := Config{Seed: 11, MTBF: 60 * time.Second, MTTR: 10 * time.Second,
		Warmup: 5 * time.Minute, Horizon: time.Hour}
	for _, ev := range Trace(testHosts(8), nil, cfg) {
		if ev.Down && ev.At < cfg.Warmup {
			t.Fatalf("failure %v struck inside the warmup window", ev)
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
		got := sum / n
		if math.Abs(got-mean.Seconds()) > 0.05*mean.Seconds() {
			t.Fatalf("%s: empirical mean %.1fs, want ~%.0fs", kind, got, mean.Seconds())
		}
	}
}

// TestSteadyStateDownFraction replays a long exponential trace and
// checks the measured down fraction against MTTR/(MTBF+MTTR).
func TestSteadyStateDownFraction(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	cfg := Config{Seed: 5, MTBF: 100 * time.Second, MTTR: 10 * time.Second,
		Horizon: 3 * time.Hour}
	hosts := testHosts(9)
	d := NewDriver(dom, Trace(hosts, nil, cfg), Hooks{})
	d.Start()
	dom.RunFor(cfg.Horizon)
	st := d.Stop()
	if st.Failures == 0 || st.Restores == 0 {
		t.Fatalf("no churn injected: %+v", st)
	}
	want := cfg.MTTR.Seconds() / (cfg.MTBF.Seconds() + cfg.MTTR.Seconds())
	if got := st.DownFraction(); math.Abs(got-want) > 0.03 {
		t.Fatalf("down fraction %.4f, want ~%.4f (±0.03)", got, want)
	}
	if st.Hosts != len(hosts) {
		t.Fatalf("stats cover %d hosts, trace has %d", st.Hosts, len(hosts))
	}
}

// TestSetHostCountNormalizesDownFraction: DownFraction must divide by
// the platform size, not by the (possibly much smaller) set of hosts
// that happened to fail within the horizon.
func TestSetHostCountNormalizesDownFraction(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	trace := []Event{
		{At: 10 * time.Second, Host: "h0", Down: true},
		{At: 40 * time.Second, Host: "h0", Down: false},
	}
	d := NewDriver(dom, trace, Hooks{})
	d.SetHostCount(10) // platform has 10 hosts; only one ever failed
	d.Start()
	dom.RunFor(time.Minute)
	st := d.Stop()
	want := 30.0 / (10 * 60.0)
	if got := st.DownFraction(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("down fraction %.4f, want %.4f (platform-normalized)", got, want)
	}
}

// TestDriverRefCountsOverlappingCauses pins the dedup contract: a host
// that fails individually during a site-wide outage must produce one
// Down and one Up, the Up only after both causes cleared.
func TestDriverRefCountsOverlappingCauses(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	trace := []Event{
		{At: 10 * time.Second, Host: "h0", Down: true, Site: "east"}, // site outage
		{At: 20 * time.Second, Host: "h0", Down: true},               // own failure, overlapping
		{At: 30 * time.Second, Host: "h0", Down: false, Site: "east"},
		{At: 50 * time.Second, Host: "h0", Down: false},
		{At: 55 * time.Second, Host: "h1", Down: false}, // spurious repair: h1 never failed
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
	if st.Failures != 1 || st.Restores != 1 || st.SiteOutages != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HostDownTime != 40*time.Second {
		t.Fatalf("downtime %v, want 40s", st.HostDownTime)
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
	tr := Trace(testHosts(8), siteOfTest, cfg)
	if len(tr) == 0 {
		t.Fatal("no site outages generated")
	}
	byOnset := make(map[time.Duration]map[string][]string) // at -> site -> hosts
	for _, ev := range tr {
		if !ev.Down {
			continue
		}
		if ev.Site == "" {
			t.Fatalf("host-level event %v with MTBF disabled", ev)
		}
		if byOnset[ev.At] == nil {
			byOnset[ev.At] = make(map[string][]string)
		}
		byOnset[ev.At][ev.Site] = append(byOnset[ev.At][ev.Site], ev.Host)
	}
	for at, sites := range byOnset {
		for site, hosts := range sites {
			if len(hosts) != 4 {
				t.Fatalf("outage at %v struck %d hosts of %s, want all 4", at, len(hosts), site)
			}
		}
	}
}

// TestStopHaltsInjection: hooks must not fire after Stop.
func TestStopHaltsInjection(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	fired := 0
	trace := []Event{
		{At: 10 * time.Second, Host: "h0", Down: true},
		{At: 40 * time.Second, Host: "h1", Down: true},
	}
	d := NewDriver(dom, trace, Hooks{Down: func(string) { fired++ }})
	d.Start()
	dom.RunFor(20 * time.Second)
	st := d.Stop()
	dom.RunFor(time.Minute)
	if fired != 1 {
		t.Fatalf("fired %d hooks, want 1 (h1 was stopped out)", fired)
	}
	if st.Observed != 20*time.Second {
		t.Fatalf("observed %v, want 20s", st.Observed)
	}
	if again := d.Stop(); again != st {
		t.Fatalf("second Stop returned different stats: %+v vs %+v", again, st)
	}
}
