package churn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// DistKind selects a lifetime distribution family.
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
	return "", fmt.Errorf("churn: unknown distribution %q (want exp or weibull)", s)
}

// Config describes a failure model. The zero value injects nothing
// (MTBF 0 disables per-host churn, SiteMTBF 0 disables site outages).
type Config struct {
	// Seed drives every lifetime draw. Traces are a pure function of
	// (Seed, host set, Config): the same inputs always replay the same
	// failures.
	Seed int64
	// MTBF is the mean uptime between failures of one host; 0 disables
	// per-host failures.
	MTBF time.Duration
	// MTTR is the mean repair (down) time of one host (default MTBF/10).
	MTTR time.Duration
	// UpDist and DownDist select the lifetime distribution families
	// (default exponential for both).
	UpDist, DownDist DistKind
	// WeibullShape is the shape parameter used by any Weibull
	// distribution (default 0.7, heavy-tailed).
	WeibullShape float64
	// SiteMTBF and SiteMTTR enable correlated whole-site outages: every
	// host of the struck site goes down together (switch or power-domain
	// failure). 0 disables them. SiteMTTR defaults to SiteMTBF/20.
	SiteMTBF, SiteMTTR time.Duration
	// Warmup is a quiet period before the first failure can strike,
	// letting the deployment boot and warm its caches.
	Warmup time.Duration
	// Horizon bounds the generated timeline (offsets from driver start).
	Horizon time.Duration
}

func (c Config) withDefaults() Config {
	if c.MTTR <= 0 {
		c.MTTR = c.MTBF / 10
	}
	if c.MTTR <= 0 {
		c.MTTR = time.Minute
	}
	if c.UpDist == "" {
		c.UpDist = DistExponential
	}
	if c.DownDist == "" {
		c.DownDist = DistExponential
	}
	if c.WeibullShape <= 0 {
		c.WeibullShape = 0.7
	}
	if c.SiteMTBF > 0 && c.SiteMTTR <= 0 {
		c.SiteMTTR = c.SiteMTBF / 20
	}
	return c
}

// Event is one transition on the injected timeline.
type Event struct {
	// At is the virtual-time offset from driver start.
	At time.Duration
	// Host is the affected host.
	Host string
	// Down is true for a failure, false for a repair.
	Down bool
	// Site is set when the event belongs to a correlated whole-site
	// outage rather than an individual host failure.
	Site string
}

// subSeed derives a per-entity RNG seed from the master seed and a
// stable label (kind + name), so every host's renewal process is
// independent of the order hosts are supplied in. The hash is FNV-1a
// over kind then name, computed in place: no concatenated label, no
// hasher on the heap.
func subSeed(seed int64, kind, name string) int64 {
	h := uint64(14695981039346656037)
	for _, s := range [2]string{kind, name} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	return seed ^ int64(h)
}

// draw samples one lifetime from the configured family. The result is
// never negative; a zero draw is possible and harmless (an instant
// transition).
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

// Trace expands the failure model into a sorted event timeline for the
// given hosts. siteOf maps a host to its site for correlated outages
// (nil disables them regardless of SiteMTBF). The result is
// deterministic in (hosts-as-a-set, cfg): permuting the host slice
// yields a byte-identical trace.
func Trace(hosts []string, siteOf func(string) string, cfg Config) []Event {
	cfg = cfg.withDefaults()
	if cfg.Horizon <= 0 {
		return nil
	}
	var out []Event
	// One generator serves every host and site: re-seeding restarts it on
	// exactly the stream rand.NewSource(seed) would, without another
	// 4.9 KB source per entity.
	rng := rand.New(rand.NewSource(cfg.Seed))

	if cfg.MTBF > 0 {
		for _, h := range hosts {
			rng.Seed(subSeed(cfg.Seed, "host:", h))
			t := cfg.Warmup + draw(rng, cfg.UpDist, cfg.MTBF, cfg.WeibullShape)
			for t < cfg.Horizon {
				out = append(out, Event{At: t, Host: h, Down: true})
				d := draw(rng, cfg.DownDist, cfg.MTTR, cfg.WeibullShape)
				if t+d >= cfg.Horizon {
					break // stays down past the horizon
				}
				t += d
				out = append(out, Event{At: t, Host: h, Down: false})
				t += draw(rng, cfg.UpDist, cfg.MTBF, cfg.WeibullShape)
			}
		}
	}

	if cfg.SiteMTBF > 0 && siteOf != nil {
		bySite := make(map[string][]string)
		for _, h := range hosts {
			if s := siteOf(h); s != "" {
				bySite[s] = append(bySite[s], h)
			}
		}
		sites := make([]string, 0, len(bySite))
		for s := range bySite {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			members := append([]string(nil), bySite[s]...)
			sort.Strings(members)
			rng.Seed(subSeed(cfg.Seed, "site:", s))
			t := cfg.Warmup + draw(rng, cfg.UpDist, cfg.SiteMTBF, cfg.WeibullShape)
			for t < cfg.Horizon {
				for _, h := range members {
					out = append(out, Event{At: t, Host: h, Down: true, Site: s})
				}
				d := draw(rng, cfg.DownDist, cfg.SiteMTTR, cfg.WeibullShape)
				if t+d >= cfg.Horizon {
					break
				}
				t += d
				for _, h := range members {
					out = append(out, Event{At: t, Host: h, Down: false, Site: s})
				}
				t += draw(rng, cfg.UpDist, cfg.SiteMTBF, cfg.WeibullShape)
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Down != b.Down {
			return a.Down // failures apply before repairs at an instant
		}
		return a.Site < b.Site
	})
	return out
}
