package faults

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// EventKind tags one timeline transition family.
type EventKind uint8

const (
	// EvPartition cuts (On) or heals (Off) one site↔site link.
	EvPartition EventKind = iota
	// EvGray starts (On) or ends (Off) one host's gray episode.
	EvGray
)

// Event is one transition on the injected fault timeline.
type Event struct {
	// At is the virtual-time offset from driver start.
	At time.Duration
	// Kind selects which of the following fields apply.
	Kind EventKind
	// A and B name the cut site pair for EvPartition, with A < B.
	A, B string
	// Host is the affected host for EvGray.
	Host string
	// On is true for an onset, false for a lift.
	On bool
}

// subSeed derives a per-entity RNG seed from the master seed and a
// stable label (kind + name), so every entity's renewal process is
// independent of the order the input slices are supplied in. The hash
// is FNV-1a over kind then name, computed in place: no concatenated
// label, no hasher on the heap.
func subSeed(seed int64, kind, name string) int64 {
	h := uint64(14695981039346656037)
	for _, s := range [2]string{kind, name} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	return seed ^ int64(h)
}

// expDraw samples one exponential lifetime. The result is never
// negative; a zero draw is possible and harmless.
func expDraw(rng *rand.Rand, mean time.Duration) time.Duration {
	u := 1 - rng.Float64() // (0, 1]
	x := -float64(mean) * math.Log(u)
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	return time.Duration(x)
}

// Trace expands the fault model into a sorted event timeline for the
// given sites and hosts. The result is deterministic in
// (sites-as-a-set, hosts-as-a-set, cfg): permuting either input slice
// yields a byte-identical trace. Only the episodic subsystems
// (partitions, gray hosts) appear on the timeline; the constant knobs
// (Loss, LatMult, DupProb) have no transitions to schedule.
func Trace(sites, hosts []string, cfg Config) []Event {
	cfg = cfg.withDefaults()
	if cfg.Horizon <= 0 {
		return nil
	}
	var out []Event
	// One generator serves the partition process and every gray host:
	// re-seeding restarts it on exactly the stream rand.NewSource(seed)
	// would, without another 4.9 KB source per host.
	rng := rand.New(rand.NewSource(cfg.Seed))

	if cfg.PartMTBF > 0 && len(sites) >= 2 {
		ss := append([]string(nil), sites...)
		sort.Strings(ss)
		rng.Seed(subSeed(cfg.Seed, "part", ""))
		t := cfg.Warmup + expDraw(rng, cfg.PartMTBF)
		for t < cfg.Horizon {
			pairs := drawCut(rng, ss, cfg.Split)
			d := expDraw(rng, cfg.PartMTTR)
			for _, p := range pairs {
				out = append(out, Event{At: t, Kind: EvPartition, A: p[0], B: p[1], On: true})
			}
			if t+d >= cfg.Horizon {
				break // stays cut past the horizon
			}
			t += d
			for _, p := range pairs {
				out = append(out, Event{At: t, Kind: EvPartition, A: p[0], B: p[1], On: false})
			}
			t += expDraw(rng, cfg.PartMTBF)
		}
	}

	if cfg.GrayFrac > 0 && cfg.GrayMTBF > 0 {
		for _, h := range hosts {
			rng.Seed(subSeed(cfg.Seed, "gray:", h))
			// The first draw decides candidacy, so the gray set is a
			// seeded property of the host, not of the host-slice order.
			if rng.Float64() >= cfg.GrayFrac {
				continue
			}
			t := cfg.Warmup + expDraw(rng, cfg.GrayMTBF)
			for t < cfg.Horizon {
				out = append(out, Event{At: t, Kind: EvGray, Host: h, On: true})
				d := expDraw(rng, cfg.GrayMTTR)
				if t+d >= cfg.Horizon {
					break // stays gray past the horizon
				}
				t += d
				out = append(out, Event{At: t, Kind: EvGray, Host: h, On: false})
				t += expDraw(rng, cfg.GrayMTBF)
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.On && !b.On // onsets apply before lifts at an instant
	})
	return out
}

// drawCut picks the site pairs one partition episode severs: a single
// random pair, or with split a cyclic bisection — a contiguous run of
// the sorted site ring against everything else, which always separates
// the platform (and any federation spread across it) into two islands.
func drawCut(rng *rand.Rand, sorted []string, split bool) [][2]string {
	n := len(sorted)
	if !split {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		return [][2]string{pairOf(sorted[i], sorted[j])}
	}
	off := rng.Intn(n)
	k := 1 + rng.Intn(n-1) // group size in [1, n-1]: both islands non-empty
	in := make(map[string]bool, k)
	for i := 0; i < k; i++ {
		in[sorted[(off+i)%n]] = true
	}
	var pairs [][2]string
	for _, a := range sorted {
		if !in[a] {
			continue
		}
		for _, b := range sorted {
			if !in[b] {
				pairs = append(pairs, pairOf(a, b))
			}
		}
	}
	return pairs
}

// pairOf canonicalizes a site pair (A < B).
func pairOf(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}
