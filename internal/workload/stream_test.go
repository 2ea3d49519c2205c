package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"p2pmpi/internal/vtime"
)

// streamConfigs spans the generator's feature space: poisson, diurnal
// with maintenance, the weekly curve, tenant skew both ways, priority
// stratification, deadlines, and both kinds of MaxSubmissions cut
// (per-tenant and global).
func streamConfigs() []Config {
	return []Config{
		{Seed: 1, Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 0.6}, Tenants: 3, Horizon: time.Hour},
		{Seed: 42, Arrival: diurnalSpec(), Tenants: 5, TenantSkew: 1, PriorityLevels: 3, Horizon: 2 * time.Hour},
		{Seed: 7, Arrival: ArrivalSpec{Kind: ArrivalWeekly, Peak: 2, Trough: 0.2},
			Tenants: 4, TenantSkew: -1, PriorityLevels: 2, Horizon: 168 * time.Hour,
			MaxSubmissions: 5000, DeadlineFactors: []float64{6, 3}},
		{Seed: 9, Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 2}, Tenants: 2,
			Horizon: time.Hour, MaxSubmissions: 50, DeadlineFactors: []float64{4}},
	}
}

// tenantTrace is tenant i's draw loop run to the end into a slice: a
// thinned nonhomogeneous Poisson process at the tenant's rate share,
// with bounded-Pareto sizes and durations. Seq fields are zero.
func tenantTrace(c Config, i int) []Submission {
	envelope := c.Arrival.MaxRate() * tenantWeight(c, i)
	if envelope <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(subSeed(c.Seed, fmt.Sprintf("tenant:%d", i))))
	pri := TenantPriority(c, i)
	var out []Submission
	for t := time.Duration(0); ; {
		// Exponential envelope step (thinning): 1−U ∈ (0, 1].
		t += time.Duration(-math.Log(1-rng.Float64()) / envelope * float64(time.Second))
		if t >= c.Horizon || t < 0 {
			return out
		}
		// Accept with prob rate(t)/envelope-rate; the rejected draws
		// still consume one uniform so the stream stays aligned.
		if rng.Float64()*c.Arrival.MaxRate() > c.Arrival.RateAt(t) {
			continue
		}
		n := int(math.Round(boundedPareto(rng.Float64(), nAlpha, float64(c.NMin), float64(c.NMax))))
		n = min(max(n, c.NMin), c.NMax)
		secs := boundedPareto(rng.Float64(), durAlpha, c.DurMin, c.DurMax)
		sub := Submission{At: t, Tenant: i, Priority: pri, N: n, Seconds: secs}
		if f := deadlineFactor(c, pri); f > 0 {
			sub.Deadline = t + time.Duration(f*secs*float64(time.Second))
		}
		if out = append(out, sub); c.MaxSubmissions > 0 && len(out) >= c.MaxSubmissions {
			return out
		}
	}
}

// referenceTrace is the oracle Stream is held to: cfg's timeline
// materialized the slow way — every tenant's whole stream, merged by a
// full sort on (At, Tenant), Seq assigned, truncated to MaxSubmissions.
func referenceTrace(cfg Config) []Submission {
	c := cfg.withDefaults()
	var out []Submission
	for i := 0; i < c.Tenants; i++ {
		out = append(out, tenantTrace(c, i)...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Tenant < out[b].Tenant
	})
	if c.MaxSubmissions > 0 && len(out) > c.MaxSubmissions {
		out = out[:c.MaxSubmissions]
	}
	for i := range out {
		out[i].Seq = i
	}
	return out
}

// drain pulls cfg's Stream dry.
func drain(t *testing.T, cfg Config) []Submission {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []Submission
	for sub, ok := s.Next(); ok; sub, ok = s.Next() {
		out = append(out, sub)
	}
	return out
}

// TestStreamMatchesTrace is the structural-equivalence property the
// replay path rests on: pulling the lazy generator dry must reproduce
// the materialized reference timeline byte for byte — same merge order,
// same Seq numbering, same deadline assignment, same truncation.
func TestStreamMatchesTrace(t *testing.T) {
	for ci, cfg := range streamConfigs() {
		trace := referenceTrace(cfg)
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		for i, want := range trace {
			peek, ok := s.Peek()
			if !ok {
				t.Fatalf("config %d: stream dry at %d of %d", ci, i, len(trace))
			}
			if peek != want {
				t.Fatalf("config %d: Peek[%d] = %+v, want %+v", ci, i, peek, want)
			}
			got, ok := s.Next()
			if !ok || got != want {
				t.Fatalf("config %d: Next[%d] = %+v (ok=%v), want %+v", ci, i, got, ok, want)
			}
		}
		if sub, ok := s.Next(); ok {
			t.Fatalf("config %d: stream longer than trace: extra %+v", ci, sub)
		}
		if _, ok := s.Peek(); ok {
			t.Fatalf("config %d: Peek still live after exhaustion", ci)
		}
	}
}

// TestWeeklyRate pins the weekly curve's shape: weekday plateaus are
// equal, Friday dips, the weekend sits lowest, and the within-day
// diurnal shape still applies on top.
func TestWeeklyRate(t *testing.T) {
	spec := ArrivalSpec{Kind: ArrivalWeekly, Peak: 2, Trough: 0.2}
	spec = spec.withDefaults()
	if spec.Period != 168*time.Hour {
		t.Fatalf("weekly default period = %v, want 168h", spec.Period)
	}
	day := spec.Period / 7
	// Sample each day at its local noon (peak of the within-day shape).
	noon := func(d int) float64 { return spec.RateAt(time.Duration(d)*day + day/2) }
	for d := 1; d < 4; d++ {
		if noon(d) != noon(0) {
			t.Errorf("weekday %d noon rate %g != monday %g", d, noon(d), noon(0))
		}
	}
	if !(noon(4) < noon(0)) {
		t.Errorf("friday %g not below the weekday plateau %g", noon(4), noon(0))
	}
	if !(noon(5) < noon(4)) || !(noon(6) < noon(5)) {
		t.Errorf("weekend not the trough: fri=%g sat=%g sun=%g", noon(4), noon(5), noon(6))
	}
	// Within a day the diurnal shape applies: 4am sits below noon.
	if early := spec.RateAt(4 * time.Hour * 168 / 168); !(early < noon(0)) {
		t.Errorf("4am rate %g not below noon %g", early, noon(0))
	}
	// The envelope still bounds the curve everywhere.
	for i := 0; i < 20_000; i++ {
		at := spec.Period / 20_000 * time.Duration(i)
		if r := spec.RateAt(at); r > spec.MaxRate()+1e-12 {
			t.Fatalf("rate %g at %v exceeds envelope %g", r, at, spec.MaxRate())
		}
	}
}

// TestWeeklyParseRoundTrip: the weekly kind survives String → Parse.
func TestWeeklyParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"weekly:peak=2,trough=0.2",
		"weekly:peak=1.5,trough=0,period=336h",
		"weekly:peak=3,trough=0.5,maintevery=24h,maintdur=2h",
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
	for _, s := range []string{
		"weekly:peak=0",
		"weekly:trough=1",
		"weekly:peak=1,trough=2",
		"weekly:peak=1,rate=1",
	} {
		if _, err := ParseArrivalSpec(s); err == nil {
			t.Errorf("%q parsed without error", s)
		}
	}
}

// TestDeadlines: deadline factors are pure decoration — they never
// perturb the arrival/size/priority draws — and each submission's
// deadline is At + factor×Seconds with the factor picked by priority
// class (last entry reused beyond the slice, empty slice = none).
func TestDeadlines(t *testing.T) {
	base := testConfig()
	plain := drain(t, base)
	cfg := base
	cfg.DeadlineFactors = []float64{10, 5} // classes 2.. reuse 5
	dl := drain(t, cfg)
	if len(dl) != len(plain) {
		t.Fatalf("deadline factors changed the trace length: %d vs %d", len(dl), len(plain))
	}
	for i := range dl {
		want := plain[i]
		got := dl[i]
		got.Deadline = 0
		if got != want {
			t.Fatalf("submission %d perturbed by deadline factors:\nwith:    %+v\nwithout: %+v", i, dl[i], want)
		}
		f := 5.0
		if dl[i].Priority == 0 {
			f = 10
		} else if dl[i].Priority == 1 {
			f = 5
		}
		wantDL := dl[i].At + time.Duration(f*dl[i].Seconds*float64(time.Second))
		if dl[i].Deadline != wantDL {
			t.Fatalf("submission %d (pri %d): deadline %v, want %v", i, dl[i].Priority, dl[i].Deadline, wantDL)
		}
	}
	for i := range plain {
		if plain[i].Deadline != 0 {
			t.Fatalf("submission %d has a deadline with factors unset", i)
		}
	}
}

// TestDriverStopSubmitAtomic closes the stop/submit race: a Stop
// landing between the driver's stopped check and the hook call used to
// count a submission as Submitted and then deliver it after Stop
// returned its settled stats. Now each submission is all-or-nothing:
// whatever Stop's snapshot says was submitted is exactly what the hook
// saw, no matter where the stop lands. Run under -race, many cut
// points.
func TestDriverStopSubmitAtomic(t *testing.T) {
	cfg := Config{
		Seed:    11,
		Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 2},
		Tenants: 2,
		Horizon: 10 * time.Minute,
	}
	for cut := 0; cut < 20; cut++ {
		s := vtime.New()
		delivered := 0
		stream, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDriver(s, stream.Next, func(Submission) { delivered++ })
		d.Start()
		// Stop from a competing actor somewhere mid-replay.
		stopAt := cfg.Horizon * time.Duration(cut) / 20
		var snap Stats
		s.Go("test.stopper", func() {
			s.Sleep(stopAt)
			snap = d.Stop()
		})
		s.RunFor(cfg.Horizon + time.Minute)
		if delivered != snap.Submitted {
			t.Fatalf("cut %d: hook saw %d submissions, Stop's snapshot says %d", cut, delivered, snap.Submitted)
		}
		if late := d.Stop(); late.Submitted != snap.Submitted {
			t.Fatalf("cut %d: second Stop drifted: %d vs %d", cut, late.Submitted, snap.Submitted)
		}
		s.Shutdown()
	}
}

// TestStreamDriverReplay: the driver delivers a Stream's submissions at
// their exact virtual arrival times, identical to the reference
// timeline.
func TestStreamDriverReplay(t *testing.T) {
	cfg := Config{
		Seed:    3,
		Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 1},
		Tenants: 2,
		Horizon: 5 * time.Minute,
	}
	trace := referenceTrace(cfg)
	stream, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := vtime.New()
	defer s.Shutdown()
	start := s.Now()
	var got []Submission
	var at []time.Duration
	d := NewDriver(s, stream.Next, func(sub Submission) {
		got = append(got, sub)
		at = append(at, s.Now().Sub(start))
	})
	d.Start()
	s.RunFor(cfg.Horizon + time.Minute)
	if !d.Drained() {
		t.Fatal("stream driver did not drain")
	}
	if len(got) != len(trace) {
		t.Fatalf("replayed %d submissions, want %d", len(got), len(trace))
	}
	for i, sub := range trace {
		if got[i] != sub {
			t.Fatalf("submission %d = %+v, want %+v", i, got[i], sub)
		}
		if at[i] != sub.At {
			t.Fatalf("submission %d fired at %v, trace says %v", i, at[i], sub.At)
		}
	}
	if st := d.Stop(); st.Submitted != len(trace) {
		t.Fatalf("stats say %d submitted, want %d", st.Submitted, len(trace))
	}
}
