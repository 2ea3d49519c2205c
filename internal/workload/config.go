package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// Submission is one arriving job request on the open-system timeline.
type Submission struct {
	// At is the virtual-time offset from trace start.
	At time.Duration
	// Seq numbers submissions in timeline order over the whole trace
	// (assigned after the cross-tenant merge).
	Seq int
	// Tenant is the submitting tenant's index (0-based; tenant 0 has
	// the largest rate share and the highest priority).
	Tenant int
	// Priority is the admission priority (higher is more urgent).
	Priority int
	// N is the requested rank count, drawn bounded-Pareto.
	N int
	// Seconds is the service duration (failure-free spin time), drawn
	// bounded-Pareto.
	Seconds float64
	// Deadline is the SLO completion deadline as an offset from trace
	// start: At + factor×Seconds, where factor comes from the config's
	// per-priority-class DeadlineFactors. Zero means no deadline
	// (DeadlineFactors unset). Derived from the existing draws — setting
	// factors never perturbs the arrival or size streams.
	Deadline time.Duration
}

// Config describes an open-system workload. Its timeline is a pure
// function of the Config: the same Config always generates the same
// submissions, and the per-tenant generators are independently seeded,
// so the timeline is byte-identical however tenant streams are
// generated or merged.
type Config struct {
	// Seed drives every draw, fanned out per tenant.
	Seed int64
	// Arrival is the platform-wide arrival process; each tenant owns a
	// thinned copy at its rate share.
	Arrival ArrivalSpec
	// Tenants is the number of submitting users (default 1).
	Tenants int
	// TenantSkew shapes the tenants' rate shares as a Zipf law: tenant
	// i's share ∝ (i+1)^−skew. 0 (the default) gives equal shares; 1
	// reproduces the few-heavy-users imbalance platform reports show.
	TenantSkew float64
	// PriorityLevels stratifies tenants into admission priorities
	// (default 1 = everyone equal). With L levels, tenant i gets
	// priority L−1−⌊i·L/Tenants⌋: the first tenants — the heavy users —
	// are also the privileged ones.
	PriorityLevels int
	// NMin and NMax bound the bounded-Pareto rank-count draw (defaults
	// 2, 32; shape nAlpha): many small jobs, a heavy tail of wide ones.
	NMin, NMax int
	// DurMin and DurMax bound the bounded-Pareto service duration in
	// seconds (defaults 20, 1800; shape durAlpha).
	DurMin, DurMax float64
	// DeadlineFactors gives each priority class an SLO deadline
	// multiplier: a job of priority p with factor f must finish by
	// At + f×Seconds. Index 0 is priority 0 (the lowest class); a class
	// beyond the slice reuses the last entry. Empty disables deadlines
	// (every Submission.Deadline stays zero).
	DeadlineFactors []float64
	// Horizon bounds the arrival timeline (required).
	Horizon time.Duration
	// MaxSubmissions caps the trace size after the merge (0 = no cap);
	// a runaway rate×horizon product truncates instead of exhausting
	// memory.
	MaxSubmissions int
}

// The Pareto shapes of the rank-count and service-duration draws.
const (
	nAlpha   = 1.4
	durAlpha = 1.3
)

func (c Config) withDefaults() Config {
	c.Arrival = c.Arrival.withDefaults()
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.PriorityLevels <= 0 {
		c.PriorityLevels = 1
	}
	if c.NMin <= 0 {
		c.NMin = 2
	}
	if c.NMax < c.NMin {
		c.NMax = 32
		if c.NMax < c.NMin {
			c.NMax = c.NMin
		}
	}
	if c.DurMin <= 0 {
		c.DurMin = 20
	}
	if c.DurMax < c.DurMin {
		c.DurMax = 1800
		if c.DurMax < c.DurMin {
			c.DurMax = c.DurMin
		}
	}
	return c
}

// Normalized returns the config with defaults applied — the bounds the
// generator actually draws from (an unset DurMax, say, becomes 1800 s
// or DurMin, whichever is larger).
func (c Config) Normalized() Config { return c.withDefaults() }

// Validate reports whether the config can generate a trace.
func (c Config) Validate() error {
	if err := c.Arrival.Validate(); err != nil {
		return err
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("workload: config needs a positive horizon")
	}
	return nil
}

// subSeed derives a per-tenant RNG seed from the master seed and a
// stable label, so every tenant's arrival stream is independent of the
// order streams are generated in — the same construction the fault
// model uses per host.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return seed ^ int64(h.Sum64())
}

// tenantWeight returns tenant i's normalized rate share.
func tenantWeight(c Config, i int) float64 {
	if c.Tenants == 1 {
		return 1
	}
	var total float64
	for j := 0; j < c.Tenants; j++ {
		total += math.Pow(float64(j+1), -c.TenantSkew)
	}
	return math.Pow(float64(i+1), -c.TenantSkew) / total
}

// TenantPriority returns tenant i's admission priority under c.
func TenantPriority(c Config, i int) int {
	c = c.withDefaults()
	return c.PriorityLevels - 1 - i*c.PriorityLevels/c.Tenants
}

// deadlineFactor returns the SLO multiplier for priority class pri, or
// 0 when deadlines are disabled. Classes beyond the configured slice
// reuse the last factor.
func deadlineFactor(c Config, pri int) float64 {
	if len(c.DeadlineFactors) == 0 {
		return 0
	}
	if pri < 0 {
		pri = 0
	}
	if pri >= len(c.DeadlineFactors) {
		pri = len(c.DeadlineFactors) - 1
	}
	return c.DeadlineFactors[pri]
}

// boundedPareto inverts the bounded-Pareto CDF on [lo, hi] with tail
// index alpha: the heavy-tailed-but-bounded shape grid workload
// archives report for both job widths and runtimes.
func boundedPareto(u, alpha, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	la, ha := math.Pow(lo, -alpha), math.Pow(hi, -alpha)
	return math.Pow(la-u*(la-ha), -1/alpha)
}
