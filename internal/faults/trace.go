package faults

import (
	"fmt"
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
	// EvCrash takes one host down (On) or repairs it (Off).
	EvCrash
)

// Event is one transition on the injected fault timeline.
type Event struct {
	// At is the virtual-time offset from driver start.
	At time.Duration
	// Kind selects which of the following fields apply.
	Kind EventKind
	// A and B name the cut site pair for EvPartition, with A < B.
	A, B string
	// Host is the affected host for EvGray and EvCrash.
	Host string
	// Site is set when an EvCrash belongs to a correlated whole-site
	// outage rather than an individual host failure.
	Site string
	// On is true for an onset, false for a lift.
	On bool
}

// DistKind selects a lifetime distribution family for host crashes.
type DistKind string

const (
	// DistExponential is the memoryless baseline: constant hazard rate,
	// the classic MTBF/MTTR renewal model.
	DistExponential DistKind = "exp"
	// DistWeibull with shape < 1 is heavy-tailed (many short lifetimes,
	// a few very long ones), the shape grid operational studies report
	// for real node uptime. The configured mean is preserved: the scale
	// parameter is derived as mean / Γ(1 + 1/shape).
	DistWeibull DistKind = "weibull"
)

// ParseDistKind validates a -dist command-line value.
func ParseDistKind(s string) (DistKind, error) {
	switch DistKind(s) {
	case "", DistExponential:
		return DistExponential, nil
	case DistWeibull:
		return DistWeibull, nil
	}
	return "", fmt.Errorf("faults: unknown distribution %q (want exp or weibull)", s)
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

// draw samples one lifetime from the family (exponential unless
// DistWeibull). The result is never negative; a zero draw is possible
// and harmless (an instant transition).
func draw(rng *rand.Rand, kind DistKind, mean time.Duration, shape float64) time.Duration {
	m := float64(mean)
	u := 1 - rng.Float64() // (0, 1]
	var x float64
	switch kind {
	case DistWeibull:
		scale := m / math.Gamma(1+1/shape)
		x = scale * math.Pow(-math.Log(u), 1/shape)
	default:
		x = -m * math.Log(u)
	}
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	return time.Duration(x)
}

// renewal is one entity's alternating healthy/faulty process: spells of
// mean up and down, drawn from the upDist and downDist families.
type renewal struct {
	upDist, downDist DistKind
	up, down         time.Duration
}

// renew replays r on rng from Warmup to Horizon, calling emit at every
// onset and lift. emit(t, true) runs before the faulty spell is drawn,
// so it may draw from rng itself. A spell still open at the horizon has
// no lift.
func (c Config) renew(rng *rand.Rand, r renewal, emit func(at time.Duration, on bool)) {
	t := c.Warmup + draw(rng, r.upDist, r.up, c.WeibullShape)
	for t < c.Horizon {
		emit(t, true)
		d := draw(rng, r.downDist, r.down, c.WeibullShape)
		if t+d >= c.Horizon {
			return
		}
		t += d
		emit(t, false)
		t += draw(rng, r.upDist, r.up, c.WeibullShape)
	}
}

// Trace expands the fault model into a sorted event timeline for the
// given sites and hosts. siteOf maps a host to its site for correlated
// outages (nil disables them regardless of SiteMTBF). The result is
// deterministic in (sites-as-a-set, hosts-as-a-set, cfg): permuting
// either input slice yields a byte-identical trace. Only the episodic
// subsystems (partitions, gray hosts, host crashes) appear on the
// timeline; the constant knobs (Loss, LatMult, DupProb) have no
// transitions to schedule.
func Trace(sites, hosts []string, siteOf func(string) string, cfg Config) []Event {
	cfg = cfg.withDefaults()
	if cfg.Horizon <= 0 {
		return nil
	}
	var out []Event
	// One generator serves every process: re-seeding restarts it on
	// exactly the stream rand.NewSource(seed) would, without another
	// 4.9 KB source per host.
	rng := rand.New(rand.NewSource(cfg.Seed))

	if cfg.PartMTBF > 0 && len(sites) >= 2 {
		ss := append([]string(nil), sites...)
		sort.Strings(ss)
		rng.Seed(subSeed(cfg.Seed, "part", ""))
		var pairs [][2]string
		cfg.renew(rng, renewal{up: cfg.PartMTBF, down: cfg.PartMTTR}, func(at time.Duration, on bool) {
			if on {
				pairs = drawCut(rng, ss, cfg.Split)
			}
			for _, p := range pairs {
				out = append(out, Event{At: at, Kind: EvPartition, A: p[0], B: p[1], On: on})
			}
		})
	}

	if cfg.GrayFrac > 0 && cfg.GrayMTBF > 0 {
		for _, h := range hosts {
			rng.Seed(subSeed(cfg.Seed, "gray:", h))
			// The first draw decides candidacy, so the gray set is a
			// seeded property of the host, not of the host-slice order.
			if rng.Float64() >= cfg.GrayFrac {
				continue
			}
			cfg.renew(rng, renewal{up: cfg.GrayMTBF, down: cfg.GrayMTTR}, func(at time.Duration, on bool) {
				out = append(out, Event{At: at, Kind: EvGray, Host: h, On: on})
			})
		}
	}

	if cfg.MTBF > 0 {
		hostLife := renewal{cfg.UpDist, cfg.DownDist, cfg.MTBF, cfg.MTTR}
		for _, h := range hosts {
			rng.Seed(subSeed(cfg.Seed, "host:", h))
			cfg.renew(rng, hostLife, func(at time.Duration, on bool) {
				out = append(out, Event{At: at, Kind: EvCrash, Host: h, On: on})
			})
		}
	}

	if cfg.SiteMTBF > 0 && siteOf != nil {
		bySite := make(map[string][]string)
		for _, h := range hosts {
			if s := siteOf(h); s != "" {
				bySite[s] = append(bySite[s], h)
			}
		}
		struck := make([]string, 0, len(bySite))
		for s := range bySite {
			struck = append(struck, s)
		}
		sort.Strings(struck)
		siteLife := renewal{cfg.UpDist, cfg.DownDist, cfg.SiteMTBF, cfg.SiteMTTR}
		for _, s := range struck {
			members := append([]string(nil), bySite[s]...)
			sort.Strings(members)
			rng.Seed(subSeed(cfg.Seed, "site:", s))
			cfg.renew(rng, siteLife, func(at time.Duration, on bool) {
				for _, h := range members {
					out = append(out, Event{At: at, Kind: EvCrash, Host: h, Site: s, On: on})
				}
			})
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
		if a.On != b.On {
			return a.On // onsets apply before lifts at an instant
		}
		return a.Site < b.Site
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
