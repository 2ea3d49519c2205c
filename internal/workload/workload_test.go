package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"p2pmpi/internal/vtime"
)

func diurnalSpec() ArrivalSpec {
	return ArrivalSpec{
		Kind: ArrivalDiurnal, Peak: 2, Trough: 0.2,
		Period: time.Hour, MaintEvery: 20 * time.Minute, MaintDur: 2 * time.Minute,
	}
}

func testConfig() Config {
	return Config{
		Seed:           42,
		Arrival:        diurnalSpec(),
		Tenants:        5,
		TenantSkew:     1,
		PriorityLevels: 3,
		Horizon:        2 * time.Hour,
	}
}

// TestTraceDeterministic: same config, same bytes.
func TestTraceDeterministic(t *testing.T) {
	a, b := drain(t, testConfig()), drain(t, testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same config differ")
	}
	if len(a) < 100 {
		t.Fatalf("trace suspiciously small: %d submissions", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("trace not sorted at %d", i)
		}
		if a[i].Seq != i {
			t.Fatalf("seq %d at index %d", a[i].Seq, i)
		}
	}
}

// TestTraceOrderIndependent is the property the golden open-family
// tests rest on: the merged timeline is byte-identical regardless of
// the order (or concurrency) in which tenant streams are generated.
// Tenant streams are generated in a random permutation — concurrently —
// merged manually with the same total key, and compared against the
// Stream.
func TestTraceOrderIndependent(t *testing.T) {
	cfg := testConfig()
	want := drain(t, cfg)
	perm := rand.New(rand.NewSource(1)).Perm(cfg.Tenants)
	parts := make([][]Submission, cfg.Tenants)
	var wg sync.WaitGroup
	for _, i := range perm {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = tenantTrace(cfg.withDefaults(), i)
		}()
	}
	wg.Wait()
	var got []Submission
	for _, i := range perm {
		got = append(got, parts[i]...)
	}
	sort.Slice(got, func(a, b int) bool {
		if got[a].At != got[b].At {
			return got[a].At < got[b].At
		}
		return got[a].Tenant < got[b].Tenant
	})
	for i := range got {
		got[i].Seq = i
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted concurrent generation diverged (%d vs %d submissions)", len(got), len(want))
	}
}

// TestTraceShapes: sizes/durations stay inside their bounded-Pareto
// bounds, priorities follow the tenant strata, the heavy tenants
// dominate under skew, and maintenance windows are empty.
func TestTraceShapes(t *testing.T) {
	cfg := testConfig()
	trace := drain(t, cfg)
	c := cfg.withDefaults()
	byTenant := make([]int, cfg.Tenants)
	for _, s := range trace {
		if s.N < c.NMin || s.N > c.NMax {
			t.Fatalf("N=%d outside [%d, %d]", s.N, c.NMin, c.NMax)
		}
		if s.Seconds < c.DurMin || s.Seconds > c.DurMax {
			t.Fatalf("dur=%g outside [%g, %g]", s.Seconds, c.DurMin, c.DurMax)
		}
		if want := TenantPriority(cfg, s.Tenant); s.Priority != want {
			t.Fatalf("tenant %d priority %d, want %d", s.Tenant, s.Priority, want)
		}
		// Maintenance blackout: no arrivals in [k·every, k·every+dur).
		if phase := s.At % c.Arrival.MaintEvery; phase < c.Arrival.MaintDur {
			t.Fatalf("submission at %v inside maintenance window (phase %v)", s.At, phase)
		}
		byTenant[s.Tenant]++
	}
	if byTenant[0] <= byTenant[cfg.Tenants-1] {
		t.Fatalf("skew=1 but tenant 0 (%d subs) not heavier than tenant %d (%d subs)",
			byTenant[0], cfg.Tenants-1, byTenant[cfg.Tenants-1])
	}
	if TenantPriority(cfg, 0) <= TenantPriority(cfg, cfg.Tenants-1) {
		t.Fatal("tenant 0 should hold the highest priority")
	}
}

// TestPoissonRate: the homogeneous generator hits its configured rate
// within sampling noise, and diurnal arrival counts track the rate
// curve (peak hours beat trough hours).
func TestPoissonRate(t *testing.T) {
	cfg := Config{
		Seed:    7,
		Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 0.5},
		Horizon: 10 * time.Hour,
	}
	trace := drain(t, cfg)
	want := 0.5 * cfg.Horizon.Seconds()
	if got := float64(len(trace)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("poisson rate 0.5/s over %v: %v submissions, want ≈%v", cfg.Horizon, got, want)
	}

	dCfg := Config{Seed: 7, Arrival: diurnalSpec(), Horizon: 12 * time.Hour}
	dTrace := drain(t, dCfg)
	spec := diurnalSpec()
	var peakN, troughN int
	for _, s := range dTrace {
		phase := float64(s.At%spec.Period) / float64(spec.Period)
		switch {
		case phase >= 0.4 && phase < 0.6: // mid-day plateau
			peakN++
		case phase < 0.2: // night trough
			troughN++
		}
	}
	if peakN <= 2*troughN {
		t.Fatalf("diurnal shape missing: peak-window %d vs trough-window %d arrivals", peakN, troughN)
	}
}

// TestDriverReplay: the driver fires every submission of any pull
// source at its exact virtual time, in order — submissions sharing an
// instant in one event.
func TestDriverReplay(t *testing.T) {
	trace := []Submission{
		{At: 0, Seq: 0}, {At: 3 * time.Second, Seq: 1}, {At: 3 * time.Second, Seq: 2, Tenant: 1},
		{At: 90 * time.Second, Seq: 3}, {At: 4 * time.Minute, Seq: 4},
	}
	next := 0
	s := vtime.New()
	defer s.Shutdown()
	start := s.Now()
	var got []Submission
	var at []time.Duration
	d := NewDriver(s, func() (Submission, bool) {
		if next == len(trace) {
			return Submission{}, false
		}
		next++
		return trace[next-1], true
	}, func(sub Submission) {
		got = append(got, sub)
		at = append(at, s.Now().Sub(start))
	})
	d.Start()
	s.RunFor(5 * time.Minute)
	if !d.Drained() {
		t.Fatal("driver did not drain")
	}
	if !reflect.DeepEqual(got, trace) {
		t.Fatalf("replayed %d submissions, want %d (or order diverged)", len(got), len(trace))
	}
	for i, sub := range trace {
		if at[i] != sub.At {
			t.Fatalf("submission %d fired at %v, trace says %v", i, at[i], sub.At)
		}
	}
	st := d.Stop()
	if st.Submitted != len(trace) {
		t.Fatalf("stats say %d submitted, want %d", st.Submitted, len(trace))
	}
}

// TestParseArrivalSpecRoundTrip: String() re-parses to the same spec,
// for handwritten and quick-generated specs.
func TestParseArrivalSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"poisson:rate=0.5",
		"poisson:rate=2",
		"diurnal:peak=2,trough=0.2",
		"diurnal:peak=1.5,trough=0,period=10m",
		"diurnal:peak=3,trough=0.5,period=24h,maintevery=6h,maintdur=30m",
	} {
		a, err := ParseArrivalSpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		b, err := ParseArrivalSpec(a.String())
		if err != nil {
			t.Fatalf("%q → %q: %v", s, a.String(), err)
		}
		if a != b {
			t.Fatalf("%q round-tripped to %+v, want %+v", s, b, a)
		}
	}
	check := func(peak, trough float64, periodMin uint16) bool {
		peak = math.Abs(peak)
		if peak == 0 || math.IsInf(peak, 0) || math.IsNaN(peak) || peak > 1e11 {
			return true
		}
		trough = math.Mod(math.Abs(trough), peak)
		spec := ArrivalSpec{
			Kind: ArrivalDiurnal, Peak: peak, Trough: trough,
			Period: time.Duration(int(periodMin)+1) * time.Minute,
		}
		got, err := ParseArrivalSpec(spec.String())
		return err == nil && got == spec.withDefaults()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestParseArrivalSpecRejects: malformed specs error out cleanly.
func TestParseArrivalSpecRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"poisson",
		"poisson:rate=0",
		"poisson:rate=-1",
		"poisson:rate=abc",
		"poisson:peak=2",
		"poisson:rate=1,rate=2",
		"diurnal:peak=0",
		"diurnal:trough=1",
		"diurnal:peak=1,trough=2",
		"diurnal:peak=1,rate=1",
		"diurnal:peak=1,maintevery=1h",
		"diurnal:peak=1,maintevery=10m,maintdur=20m",
		"diurnal:peak=1,bogus=3",
		"weibull:rate=1",
		"poisson:rate",
		"poisson:=1",
	} {
		if _, err := ParseArrivalSpec(s); err == nil {
			t.Errorf("%q parsed without error", s)
		}
	}
}

// TestRateAtEnvelope: the thinning envelope really is an upper bound of
// the rate function everywhere (otherwise the generator would silently
// under-sample the peak).
func TestRateAtEnvelope(t *testing.T) {
	spec := diurnalSpec()
	for i := 0; i < 10_000; i++ {
		at := time.Duration(i) * spec.Period / 2500
		if r := spec.RateAt(at); r > spec.MaxRate()+1e-12 {
			t.Fatalf("rate %g at %v exceeds envelope %g", r, at, spec.MaxRate())
		}
	}
}

// TestTraceCap: MaxSubmissions truncates from the tail of the merged
// timeline.
func TestTraceCap(t *testing.T) {
	cfg := testConfig()
	full := drain(t, cfg)
	cfg.MaxSubmissions = 50
	capped := drain(t, cfg)
	if len(capped) != 50 {
		t.Fatalf("capped trace has %d submissions", len(capped))
	}
	if !reflect.DeepEqual(capped, full[:50]) {
		t.Fatal("capped trace is not a prefix of the full trace")
	}
}

func ExampleParseArrivalSpec() {
	spec, _ := ParseArrivalSpec("diurnal:peak=2,trough=0.2,period=24h,maintevery=6h,maintdur=30m")
	fmt.Println(spec.Kind, spec.Peak, spec.Trough)
	fmt.Println(spec.RateAt(10 * time.Minute)) // inside the first maintenance window
	// Output:
	// diurnal 2 0.2
	// 0
}
