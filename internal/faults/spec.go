package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pmpi/internal/vtime"
)

// Config describes a fault model: host crashes and site outages, and
// the network's partitions, degradation, gray hosts and duplication.
// The zero value injects nothing. Build it directly or parse the
// network part from the -faults command-line syntax with
// ParseFaultSpec:
//
//	part:mtbf=10m,mttr=1m,split=1
//	link:loss=0.3,mult=2
//	gray:frac=0.1,mtbf=5m,mttr=30s,drop=0.5,slow=3
//	dup:p=0.01,delay=5
//	part:mtbf=10m;link:loss=0.1;dup:p=0.01
//
// Clauses are joined by ";"; "" and "none" mean no faults.
type Config struct {
	// Seed drives every episode draw. Traces are a pure function of
	// (Seed, site set, host set, Config): the same inputs always replay
	// the same faults. Not part of the spec string.
	Seed int64

	// MTBF is the mean uptime between failures of one host; 0 disables
	// host crashes. MTTR is the mean repair time (default MTBF/10).
	// UpDist and DownDist select the lifetime families (default
	// exponential); WeibullShape is the shape of any Weibull family
	// (default 0.7, heavy-tailed). SiteMTBF and SiteMTTR enable
	// correlated whole-site outages — every host of the struck site goes
	// down together (switch or power-domain failure); SiteMTTR defaults
	// to SiteMTBF/20. None of these is part of the spec string.
	MTBF, MTTR         time.Duration
	UpDist, DownDist   DistKind
	WeibullShape       float64
	SiteMTBF, SiteMTTR time.Duration

	// PartMTBF is the mean healthy time between partition episodes; 0
	// disables partitions. PartMTTR is the mean episode duration
	// (default PartMTBF/10). With Split each episode cuts a random
	// bisection of the site set — the federation-splitting cut — instead
	// of a single random site pair.
	PartMTBF, PartMTTR time.Duration
	Split              bool

	// Loss is a constant drop probability applied to every cross-site
	// data frame; LatMult multiplies every cross-site link's base
	// latency (1 = unchanged). Handshake frames (SYN/accept/FIN) are
	// exempt from random loss, modelling transport-level retransmission.
	Loss    float64
	LatMult float64

	// GrayFrac of the hosts (a seeded per-host draw) are gray-failure
	// candidates: during episodes of mean length GrayMTTR, arriving
	// every GrayMTBF of healthy time, the host stays up but drops
	// GrayDrop of its data frames and slows all its traffic by GraySlow.
	// GrayFrac or GrayMTBF at 0 disables gray failures. GrayMTTR
	// defaults to GrayMTBF/10; a gray episode with neither drop nor
	// slow configured defaults to drop=0.5.
	GrayFrac           float64
	GrayMTBF, GrayMTTR time.Duration
	GrayDrop           float64
	GraySlow           float64

	// DupProb duplicates each delivered data frame with this
	// probability; the copy arrives a uniform draw of up to DupDelay
	// (default 100ms) later, unordered against later traffic — the
	// reordering mechanism. 0 disables duplication.
	DupProb  float64
	DupDelay time.Duration

	// Warmup is a quiet period before the first episode can strike.
	// Horizon bounds the generated timeline (offsets from driver
	// start). Neither is part of the spec string.
	Warmup  time.Duration
	Horizon time.Duration
}

func (c Config) withDefaults() Config {
	if c.MTBF > 0 && c.MTTR <= 0 {
		if c.MTTR = c.MTBF / 10; c.MTTR <= 0 {
			c.MTTR = time.Minute
		}
	}
	if c.WeibullShape <= 0 && (c.UpDist == DistWeibull || c.DownDist == DistWeibull) {
		c.WeibullShape = 0.7
	}
	if c.SiteMTBF > 0 && c.SiteMTTR <= 0 {
		c.SiteMTTR = c.SiteMTBF / 20
	}
	if c.PartMTBF > 0 && c.PartMTTR <= 0 {
		c.PartMTTR = c.PartMTBF / 10
	}
	if c.LatMult < 1 {
		c.LatMult = 1
	}
	if c.GraySlow < 1 {
		c.GraySlow = 1
	}
	if c.GrayFrac > 0 && c.GrayMTBF > 0 {
		if c.GrayMTTR <= 0 {
			c.GrayMTTR = c.GrayMTBF / 10
		}
		if c.GrayDrop <= 0 && c.GraySlow <= 1 {
			c.GrayDrop = 0.5 // a gray host that neither drops nor slows is healthy
		}
	}
	if c.DupProb > 0 && c.DupDelay <= 0 {
		c.DupDelay = 100 * time.Millisecond
	}
	return c
}

// Normalized returns the config with defaults applied — the form
// ParseFaultSpec returns and Trace works from. Callers that build a
// Config literal and read derived fields (GrayDrop, DupDelay, the
// MTTRs) should normalize first.
func (c Config) Normalized() Config { return c.withDefaults() }

// Crashes returns the host-crash part of the model alone, with the
// network knobs zeroed: the form a crash-only driver replays.
func (c Config) Crashes() Config {
	return Config{Seed: c.Seed, MTBF: c.MTBF, MTTR: c.MTTR, UpDist: c.UpDist, DownDist: c.DownDist,
		WeibullShape: c.WeibullShape, SiteMTBF: c.SiteMTBF, SiteMTTR: c.SiteMTTR,
		Warmup: c.Warmup, Horizon: c.Horizon}
}

// Enabled reports whether the model injects anything at all.
func (c Config) Enabled() bool {
	c = c.withDefaults()
	return c.MTBF > 0 || c.SiteMTBF > 0 || c.PartMTBF > 0 || c.Loss > 0 || c.LatMult > 1 ||
		(c.GrayFrac > 0 && c.GrayMTBF > 0) || c.DupProb > 0
}

// Validate reports whether the model is runnable.
func (c Config) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"link loss", c.Loss},
		{"gray frac", c.GrayFrac},
		{"gray drop", c.GrayDrop},
		{"dup p", c.DupProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v != p.v || p.v > 1 {
			return fmt.Errorf("faults: %s %g outside [0, 1]", p.name, p.v)
		}
	}
	// Probability 1 on a drop knob would sever every data path forever;
	// total outages are what partitions and host crashes are for.
	if c.Loss >= 1 {
		return fmt.Errorf("faults: link loss must be below 1, got %g", c.Loss)
	}
	if c.GrayDrop >= 1 {
		return fmt.Errorf("faults: gray drop must be below 1, got %g", c.GrayDrop)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{{"link mult", c.LatMult}, {"gray slow", c.GraySlow}} {
		if m.v != m.v || m.v < 0 || (m.v > 0 && m.v < 1) || m.v > 1e6 {
			return fmt.Errorf("faults: %s %g outside [1, 1e6]", m.name, m.v)
		}
	}
	return nil
}

// String renders the model in the exact syntax ParseFaultSpec accepts
// (round-trip property: ParseFaultSpec(c.String()) ≡ c.withDefaults(),
// ignoring Seed/Warmup/Horizon and the crash model, which are not spec
// fields).
func (c Config) String() string {
	c = c.withDefaults()
	var clauses []string
	if c.PartMTBF > 0 {
		s := fmt.Sprintf("part:mtbf=%s,mttr=%s", c.PartMTBF, c.PartMTTR)
		if c.Split {
			s += ",split=1"
		}
		clauses = append(clauses, s)
	}
	if c.Loss > 0 || c.LatMult > 1 {
		clauses = append(clauses, fmt.Sprintf("link:loss=%s,mult=%s",
			formatProb(c.Loss), formatProb(c.LatMult)))
	}
	if c.GrayFrac > 0 && c.GrayMTBF > 0 {
		clauses = append(clauses, fmt.Sprintf("gray:frac=%s,mtbf=%s,mttr=%s,drop=%s,slow=%s",
			formatProb(c.GrayFrac), c.GrayMTBF, c.GrayMTTR,
			formatProb(c.GrayDrop), formatProb(c.GraySlow)))
	}
	if c.DupProb > 0 {
		clauses = append(clauses, fmt.Sprintf("dup:p=%s,delay=%s",
			formatProb(c.DupProb), c.DupDelay))
	}
	if len(clauses) == 0 {
		return "none"
	}
	return strings.Join(clauses, ";")
}

func formatProb(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseFaultSpec parses the -faults command-line syntax
// ("kind:key=value,...;kind:key=value,..."). Unknown kinds, unknown
// keys, malformed values and invalid combinations are errors, never
// panics — the fuzz target holds the parser to that.
func ParseFaultSpec(s string) (Config, error) {
	var c Config
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return c.withDefaults(), nil
	}
	seenKind := map[string]bool{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		head, rest, _ := strings.Cut(clause, ":")
		kind := strings.TrimSpace(head)
		switch kind {
		case "part", "link", "gray", "dup":
		case "":
			return c, fmt.Errorf("faults: empty fault clause in %q", s)
		default:
			return c, fmt.Errorf("faults: unknown fault clause %q (want part, link, gray or dup)", kind)
		}
		if seenKind[kind] {
			return c, fmt.Errorf("faults: duplicate %s clause", kind)
		}
		seenKind[kind] = true
		seen := map[string]bool{}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if !ok || val == "" {
				return c, fmt.Errorf("faults: %s field %q is not key=value", kind, kv)
			}
			if seen[key] {
				return c, fmt.Errorf("faults: duplicate %s field %q", kind, key)
			}
			seen[key] = true
			var err error
			switch kind + ":" + key {
			case "part:mtbf":
				c.PartMTBF, err = vtime.ParseDuration(val)
			case "part:mttr":
				c.PartMTTR, err = vtime.ParseDuration(val)
			case "part:split":
				var b bool
				if b, err = strconv.ParseBool(val); err != nil {
					err = fmt.Errorf("bad bool %q", val)
				} else {
					c.Split = b
				}
			case "link:loss":
				err = parseProbInto(&c.Loss, val)
			case "link:mult":
				err = parseProbInto(&c.LatMult, val)
			case "gray:frac":
				err = parseProbInto(&c.GrayFrac, val)
			case "gray:mtbf":
				c.GrayMTBF, err = vtime.ParseDuration(val)
			case "gray:mttr":
				c.GrayMTTR, err = vtime.ParseDuration(val)
			case "gray:drop":
				err = parseProbInto(&c.GrayDrop, val)
			case "gray:slow":
				err = parseProbInto(&c.GraySlow, val)
			case "dup:p":
				err = parseProbInto(&c.DupProb, val)
			case "dup:delay":
				c.DupDelay, err = vtime.ParseDuration(val)
			default:
				err = fmt.Errorf("unknown field %q (want %s)", key, strings.Join(faultFields(kind), "|"))
			}
			if err != nil {
				return c, fmt.Errorf("faults: %s %s: %w", kind, key, err)
			}
		}
	}
	// A present clause must actually enable its subsystem, or String
	// would drop it and the round trip would silently lose fields.
	if seenKind["part"] && c.PartMTBF <= 0 {
		return c, fmt.Errorf("faults: part clause needs mtbf > 0")
	}
	if seenKind["gray"] && (c.GrayFrac <= 0 || c.GrayMTBF <= 0) {
		return c, fmt.Errorf("faults: gray clause needs frac > 0 and mtbf > 0")
	}
	if seenKind["dup"] && c.DupProb <= 0 {
		return c, fmt.Errorf("faults: dup clause needs p > 0")
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c.withDefaults(), nil
}

func faultFields(kind string) []string {
	var f []string
	switch kind {
	case "part":
		f = []string{"mtbf", "mttr", "split"}
	case "link":
		f = []string{"loss", "mult"}
	case "gray":
		f = []string{"frac", "mtbf", "mttr", "drop", "slow"}
	case "dup":
		f = []string{"p", "delay"}
	}
	sort.Strings(f)
	return f
}

// parseProbInto parses a non-negative finite value for the probability
// and multiplier knobs; range checks live in Validate.
func parseProbInto(dst *float64, s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("bad value %q", s)
	}
	if v < 0 || v != v || v > 1e12 {
		return fmt.Errorf("value %q out of range", s)
	}
	*dst = v
	return nil
}
