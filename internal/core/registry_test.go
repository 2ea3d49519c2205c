package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestRegistryRoundTrips: ParseStrategy, Lookup and Names agree for
// every strategy, and unknown names fail cleanly everywhere.
func TestRegistryRoundTrips(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry has %d strategies (%v), want the 3 paper + 3 extension policies", len(names), names)
	}
	for _, want := range []Strategy{Spread, Concentrate, Mixed, Random, MinSites, CommAware} {
		found := false
		for _, n := range names {
			if n == string(want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in strategy %q missing from Names() = %v", want, names)
		}
	}
	for _, name := range names {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, p.Name())
		}
		st, err := ParseStrategy(name)
		if err != nil || st.String() != name {
			t.Fatalf("ParseStrategy(%q) = %v, %v", name, st, err)
		}
	}
	if got := Strategies(); len(got) != len(names) {
		t.Fatalf("Strategies() = %v, want one per name %v", got, names)
	}
	if _, err := Lookup("no-such-strategy"); err == nil {
		t.Fatal("Lookup accepted an unknown name")
	}
	if _, err := ParseStrategy("no-such-strategy"); err == nil {
		t.Fatal("ParseStrategy accepted an unknown name")
	}
}

// overfillPlacement is a deliberately broken policy: it dumps every
// process onto the first host, ignoring the capacity rule.
type overfillPlacement struct{}

func (overfillPlacement) Name() string { return "test-overfill" }
func (overfillPlacement) Allocate(slist []HostSlot, n, r int) (*Assignment, error) {
	u := make([]int, len(slist))
	u[0] = n * r
	return &Assignment{
		Hosts: append([]HostSlot(nil), slist...),
		U:     u, Procs: assignRanks(u, n*r), N: n, R: r,
		Strategy: "test-overfill",
	}, nil
}

// permutePlacement is a deliberately broken policy: it computes a valid
// u-vector but reports a reordered Hosts slice, so per-index checks
// against slist would look consistent while the launch path (which
// resolves through Hosts) would co-locate replicas.
type permutePlacement struct{}

func (permutePlacement) Name() string { return "test-permute" }
func (permutePlacement) Allocate(slist []HostSlot, n, r int) (*Assignment, error) {
	if err := Feasible(slist, n, r); err != nil {
		return nil, err
	}
	u := concentrate(capacities(slist, n), n*r)
	hosts := append([]HostSlot(nil), slist...)
	hosts[0], hosts[len(hosts)-1] = hosts[len(hosts)-1], hosts[0]
	return &Assignment{
		Hosts: hosts, U: u, Procs: assignRanks(u, n), N: n, R: r,
		Strategy: "test-permute",
	}, nil
}

// dupRankPlacement is a deliberately broken policy: locally valid on
// every host, but it clones (rank 0, replica 0) across hosts instead of
// covering all ranks.
type dupRankPlacement struct{}

func (dupRankPlacement) Name() string { return "test-duprank" }
func (dupRankPlacement) Allocate(slist []HostSlot, n, r int) (*Assignment, error) {
	if err := Feasible(slist, n, r); err != nil {
		return nil, err
	}
	u := spread(capacities(slist, n), n*r)
	procs := make([][]Proc, len(slist))
	for i, ui := range u {
		for l := 0; l < ui; l++ {
			procs[i] = append(procs[i], Proc{Rank: 0, Replica: 0})
		}
	}
	return &Assignment{
		Hosts: append([]HostSlot(nil), slist...),
		U:     u, Procs: procs, N: n, R: r,
		Strategy: "test-duprank",
	}, nil
}

// TestAllocateRejectsUnsafeThirdPartyPolicy: the safety check Allocate
// runs on every policy's output (checkSafety) must catch a placement
// that violates the capacity/replica-safety invariants — by overfilling
// a host, mis-echoing the slist, or duplicating (rank, replica) pairs
// across hosts. The placement set is fixed, so the broken policies are
// driven here directly and their output goes through the same check.
func TestAllocateRejectsUnsafeThirdPartyPolicy(t *testing.T) {
	slist := mkSlist(4, 2)
	for _, p := range []Placement{overfillPlacement{}, permutePlacement{}, dupRankPlacement{}} {
		a, err := p.Allocate(slist, 4, 2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if a.checkSafety(slist, 4, 2) == nil {
			t.Errorf("%s passed the safety chokepoint", p.Name())
		}
	}
}

// randomSlist draws a property-test slist: uneven capacities, duplicated
// and interleaved sites, arbitrary latencies (including zero).
func randomSlist(rng *rand.Rand) []HostSlot {
	k := 1 + rng.Intn(40)
	out := make([]HostSlot, k)
	for i := range out {
		out[i] = HostSlot{
			ID:      fmt.Sprintf("h%03d", i),
			Site:    fmt.Sprintf("s%d", rng.Intn(1+k/4)),
			P:       rng.Intn(8),
			Latency: time.Duration(rng.Intn(20)) * time.Millisecond,
		}
	}
	return out
}

// TestAllRegisteredStrategiesReplicaSafe drives every registered policy
// with random slists and checks the full invariant set: exactly n×r
// processes, u_i ≤ min(P_i, n), and no two replicas of one rank on one
// host — the criterion every placement must uphold.
func TestAllRegisteredStrategiesReplicaSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		trials := 0
		for trials < 150 {
			slist := randomSlist(rng)
			n := 1 + rng.Intn(50)
			r := 1 + rng.Intn(3)
			feasErr := Feasible(slist, n, r)
			a, err := p.Allocate(slist, n, r)
			if (feasErr == nil) != (err == nil) {
				t.Fatalf("%s: Feasible=%v but Allocate err=%v", name, feasErr, err)
			}
			if err != nil {
				if !errors.Is(err, ErrTooFewHosts) && !errors.Is(err, ErrInsufficientCapacity) && !errors.Is(err, ErrBadRequest) {
					t.Fatalf("%s: unexpected error class %v", name, err)
				}
				continue
			}
			trials++
			checkInvariants(t, a, slist, n, r)
			if a.Strategy.String() != name {
				t.Fatalf("%s: assignment tagged %q", name, a.Strategy)
			}
		}
	}
}

// TestAllRegisteredStrategiesDeterministic: every registered policy maps
// identical inputs to identical assignments (a replayable-simulation
// requirement, and what makes the seeded random baseline a baseline).
func TestAllRegisteredStrategiesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			slist := randomSlist(rng)
			n := 1 + rng.Intn(30)
			a1, err1 := p.Allocate(slist, n, 1)
			a2, err2 := p.Allocate(slist, n, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: nondeterministic error", name)
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(a1.U, a2.U) || !reflect.DeepEqual(a1.Procs, a2.Procs) {
				t.Fatalf("%s: nondeterministic assignment", name)
			}
		}
	}
}

// TestMinSitesUsesFewestSites: on a layout where the latency order would
// scatter the job, minsites must fit it into the single biggest site.
func TestMinSitesUsesFewestSites(t *testing.T) {
	// Sites a..d interleaved in latency order; site "big" can hold all.
	var slist []HostSlot
	for i := 0; i < 12; i++ {
		slist = append(slist, HostSlot{
			ID:      fmt.Sprintf("h%02d", i),
			Site:    fmt.Sprintf("s%d", i%4),
			P:       1,
			Latency: time.Duration(i) * time.Millisecond,
		})
	}
	for i := 0; i < 4; i++ {
		slist = append(slist, HostSlot{
			ID:      fmt.Sprintf("big%d", i),
			Site:    "big",
			P:       4,
			Latency: time.Duration(100+i) * time.Millisecond,
		})
	}
	a, err := Allocate(slist, 8, 1, MinSites)
	if err != nil {
		t.Fatal(err)
	}
	if sites := a.HostsBySite(); len(sites) != 1 || sites["big"] == 0 {
		t.Fatalf("minsites scattered across %v", sites)
	}
	// spread, by contrast, uses 4+ sites here.
	sp, err := Allocate(slist, 8, 1, Spread)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.HostsBySite()) < 4 {
		t.Fatalf("spread unexpectedly compact: %v", sp.HostsBySite())
	}
}

// TestCommAwareBuildsTightCluster: given one far site that can hold the
// whole job and near hosts scattered one per site, comm-aware must stay
// within few sites rather than follow raw latency order.
func TestCommAwareBuildsTightCluster(t *testing.T) {
	// The closest host sits alone in its site; a co-located cluster of
	// comparable latency follows; the remaining hosts are lone singles at
	// increasing distance. Under the star RTT estimate (0 within a site,
	// lat(a)+lat(b) across) the cluster snowballs after the first pick:
	// every additional cluster host costs only its submitter leg against
	// the out-of-site chosen hosts, while a lone host pays pairwise legs
	// against the whole chosen set.
	slist := []HostSlot{
		{ID: "near0", Site: "lone0", P: 1, Latency: 5 * time.Millisecond},
	}
	for i := 0; i < 6; i++ {
		slist = append(slist, HostSlot{
			ID:      fmt.Sprintf("cl%d", i),
			Site:    "cluster",
			P:       2,
			Latency: 6 * time.Millisecond,
		})
	}
	for i := 1; i < 6; i++ {
		slist = append(slist, HostSlot{
			ID:      fmt.Sprintf("near%d", i),
			Site:    fmt.Sprintf("lone%d", i),
			P:       1,
			Latency: time.Duration(6+i) * time.Millisecond,
		})
	}
	a, err := Allocate(slist, 8, 1, CommAware)
	if err != nil {
		t.Fatal(err)
	}
	sites := a.HostsBySite()
	if sites["cluster"] < 4 {
		t.Fatalf("comm-aware ignored the co-located cluster: %v", sites)
	}
	if len(sites) != 2 {
		t.Fatalf("comm-aware scattered across %d sites: %v", len(sites), sites)
	}
	// spread on the same slist straddles many more sites.
	sp, err := Allocate(slist, 8, 1, Spread)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.HostsBySite()) <= 2 {
		t.Fatalf("spread unexpectedly compact: %v", sp.HostsBySite())
	}
}

// TestRandomPlacementSeedSensitivity: the baseline is deterministic per
// input but decorrelates across inputs and across explicit seeds.
func TestRandomPlacementSeedSensitivity(t *testing.T) {
	slist := mkSlist(30, 2)
	a1, err := RandomPlacement{}.Allocate(slist, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RandomPlacement{}.Allocate(slist, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.U, a2.U) {
		t.Fatal("random placement not deterministic per input")
	}
	b, err := RandomPlacement{Seed: 99}.Allocate(slist, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1.U, b.U) {
		t.Fatal("seed had no effect (astronomically unlikely)")
	}
}
