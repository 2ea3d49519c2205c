package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pmpi/internal/vtime"
)

// ArrivalKind selects an arrival-process family.
type ArrivalKind string

const (
	// ArrivalPoisson is the homogeneous Poisson process: exponential
	// inter-arrival times at a constant rate, the open-queue baseline.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalDiurnal is a nonhomogeneous Poisson process whose rate
	// follows a piecewise day/night load curve between Trough and Peak,
	// optionally with periodic maintenance-window blackouts — the shape
	// of the Grid'5000 "year in the life" platform report.
	ArrivalDiurnal ArrivalKind = "diurnal"
	// ArrivalWeekly composes the diurnal day curve with a seven-day
	// weekday/weekend envelope: working days carry the full diurnal
	// shape, Saturday and Sunday a flattened fraction of it — the weekly
	// utilization rhythm of the Grid'5000 "year in the life" report,
	// which shows weekday submission rates roughly twice the weekend's.
	// Period covers the whole week (default 168h).
	ArrivalWeekly ArrivalKind = "weekly"
)

// ArrivalSpec describes one arrival process. Build it directly or parse
// the -arrival command-line syntax with ParseArrivalSpec:
//
//	poisson:rate=0.5
//	diurnal:peak=2,trough=0.2,period=24h
//	diurnal:peak=2,trough=0.2,period=24h,maintevery=6h,maintdur=30m
//	weekly:peak=2,trough=0.2
//
// Rates are submissions per virtual second, summed over all tenants.
type ArrivalSpec struct {
	Kind ArrivalKind
	// Rate is the constant rate of a Poisson process (subs/s).
	Rate float64
	// Peak and Trough bound the diurnal rate curve (subs/s).
	Peak, Trough float64
	// Period is the diurnal cycle length (default 24h). The curve is the
	// fixed 24-slot day profile scaled onto this period, so short test
	// periods compress a full day shape.
	Period time.Duration
	// MaintEvery and MaintDur carve periodic maintenance blackouts: every
	// MaintEvery, arrivals stop for MaintDur (the window opens at phase
	// 0 of each maintenance cycle). Zero disables.
	MaintEvery, MaintDur time.Duration
}

// dayProfile is the fixed piecewise diurnal shape, one weight per 24th
// of the period, normalized to [0, 1]: quiet night, morning ramp,
// afternoon peak, evening tail — the canonical production-grid load
// curve. Rate(t) maps it onto [Trough, Peak].
var dayProfile = [24]float64{
	0.05, 0.02, 0.00, 0.00, 0.02, 0.08, // 00-06: night trough
	0.20, 0.40, 0.65, 0.85, 0.95, 1.00, // 06-12: morning ramp
	1.00, 0.95, 0.90, 0.90, 0.85, 0.70, // 12-18: sustained peak
	0.55, 0.40, 0.30, 0.20, 0.12, 0.08, // 18-24: evening tail
}

// weekProfile is the fixed weekday/weekend envelope for the weekly kind,
// one multiplier per day starting Monday. Working days carry the full
// diurnal curve; the weekend runs at roughly half load with Sunday the
// quietest — the weekly submission rhythm of the Grid'5000 platform
// report.
var weekProfile = [7]float64{
	1.00, 1.00, 1.00, 1.00, 0.90, // Mon-Fri
	0.55, 0.45, // Sat, Sun
}

// withDefaults normalizes a spec (non-destructive).
func (a ArrivalSpec) withDefaults() ArrivalSpec {
	if a.Kind == "" {
		a.Kind = ArrivalPoisson
	}
	if a.Kind == ArrivalDiurnal && a.Period <= 0 {
		a.Period = 24 * time.Hour
	}
	if a.Kind == ArrivalWeekly && a.Period <= 0 {
		a.Period = 7 * 24 * time.Hour
	}
	return a
}

// Validate reports whether the spec is runnable.
func (a ArrivalSpec) Validate() error {
	a = a.withDefaults()
	switch a.Kind {
	case ArrivalPoisson:
		if a.Rate <= 0 {
			return fmt.Errorf("workload: poisson arrival needs rate > 0, got %g", a.Rate)
		}
	case ArrivalDiurnal, ArrivalWeekly:
		if a.Peak <= 0 {
			return fmt.Errorf("workload: %s arrival needs peak > 0, got %g", a.Kind, a.Peak)
		}
		if a.Trough < 0 || a.Trough > a.Peak {
			return fmt.Errorf("workload: %s trough %g outside [0, peak=%g]", a.Kind, a.Trough, a.Peak)
		}
		if a.Period <= 0 {
			return fmt.Errorf("workload: %s period must be positive, got %v", a.Kind, a.Period)
		}
		if (a.MaintEvery > 0) != (a.MaintDur > 0) {
			return fmt.Errorf("workload: maintenance needs both maintevery and maintdur")
		}
		if a.MaintEvery > 0 && a.MaintDur >= a.MaintEvery {
			return fmt.Errorf("workload: maintdur %v must be shorter than maintevery %v", a.MaintDur, a.MaintEvery)
		}
	default:
		return fmt.Errorf("workload: unknown arrival kind %q (want poisson, diurnal or weekly)", a.Kind)
	}
	return nil
}

// MaxRate returns the rate-function ceiling — the thinning envelope of
// the trace generator.
func (a ArrivalSpec) MaxRate() float64 {
	a = a.withDefaults()
	if a.Kind == ArrivalPoisson {
		return a.Rate
	}
	return a.Peak
}

// RateAt returns the instantaneous arrival rate at offset t from trace
// start (subs/s, summed over tenants).
func (a ArrivalSpec) RateAt(t time.Duration) float64 {
	a = a.withDefaults()
	if a.Kind == ArrivalPoisson {
		return a.Rate
	}
	if t < 0 {
		// Extend periodically: Go's % keeps the dividend's sign, and a
		// negative phase would index the day tables out of range.
		if t %= a.Period; t < 0 {
			t += a.Period
		}
	}
	if a.MaintEvery > 0 {
		if phase := t % a.MaintEvery; phase < a.MaintDur {
			return 0 // maintenance blackout
		}
	}
	phase := float64(t%a.Period) / float64(a.Period) // [0, 1)
	week := 1.0
	if a.Kind == ArrivalWeekly {
		// The period covers seven days: each seventh gets the full
		// diurnal shape scaled by that day's weekday/weekend weight.
		dayPos := phase * 7
		day := int(dayPos)
		if day > 6 {
			day = 6
		}
		week = weekProfile[day]
		phase = dayPos - float64(day) // [0, 1) within the day
	}
	pos := phase * 24
	slot := int(pos)
	if slot > 23 {
		slot = 23
	}
	next := (slot + 1) % 24
	frac := pos - float64(slot)
	shape := dayProfile[slot]*(1-frac) + dayProfile[next]*frac
	return a.Trough + (a.Peak-a.Trough)*shape*week
}

// String renders the spec in the exact syntax ParseArrivalSpec accepts
// (round-trip property: ParseArrivalSpec(s.String()) ≡ s).
func (a ArrivalSpec) String() string {
	a = a.withDefaults()
	var b strings.Builder
	switch a.Kind {
	case ArrivalDiurnal, ArrivalWeekly:
		fmt.Fprintf(&b, "%s:peak=%s,trough=%s,period=%s",
			a.Kind, formatRate(a.Peak), formatRate(a.Trough), a.Period)
		if a.MaintEvery > 0 {
			fmt.Fprintf(&b, ",maintevery=%s,maintdur=%s", a.MaintEvery, a.MaintDur)
		}
	default:
		fmt.Fprintf(&b, "poisson:rate=%s", formatRate(a.Rate))
	}
	return b.String()
}

func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// ParseArrivalSpec parses the -arrival command-line syntax
// ("kind:key=value,key=value"). Unknown kinds, unknown keys, malformed
// values and invalid combinations are errors, never panics — the fuzz
// target holds the parser to that.
func ParseArrivalSpec(s string) (ArrivalSpec, error) {
	var a ArrivalSpec
	head, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	a.Kind = ArrivalKind(strings.TrimSpace(head))
	switch a.Kind {
	case ArrivalPoisson, ArrivalDiurnal, ArrivalWeekly:
	case "":
		return a, fmt.Errorf("workload: empty arrival spec")
	default:
		return a, fmt.Errorf("workload: unknown arrival kind %q (want poisson, diurnal or weekly)", a.Kind)
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || val == "" {
			return a, fmt.Errorf("workload: arrival spec field %q is not key=value", kv)
		}
		if seen[key] {
			return a, fmt.Errorf("workload: duplicate arrival field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "rate":
			err = parseRateInto(&a.Rate, val)
		case "peak":
			err = parseRateInto(&a.Peak, val)
		case "trough":
			err = parseRateInto(&a.Trough, val)
		case "period":
			a.Period, err = vtime.ParseDuration(val)
		case "maintevery":
			a.MaintEvery, err = vtime.ParseDuration(val)
		case "maintdur":
			a.MaintDur, err = vtime.ParseDuration(val)
		default:
			err = fmt.Errorf("unknown field %q (want %s)", key, strings.Join(arrivalFields(a.Kind), "|"))
		}
		if err != nil {
			return a, fmt.Errorf("workload: arrival %s: %w", key, err)
		}
	}
	if a.Kind == ArrivalPoisson && (a.Peak != 0 || a.Trough != 0 || a.Period != 0 || a.MaintEvery != 0 || a.MaintDur != 0) {
		return a, fmt.Errorf("workload: poisson arrival takes only rate=")
	}
	if a.Kind != ArrivalPoisson && a.Rate != 0 {
		return a, fmt.Errorf("workload: %s arrival takes peak=/trough=, not rate=", a.Kind)
	}
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a.withDefaults(), nil
}

func arrivalFields(k ArrivalKind) []string {
	if k == ArrivalPoisson {
		return []string{"rate"}
	}
	f := []string{"peak", "trough", "period", "maintevery", "maintdur"}
	sort.Strings(f)
	return f
}

// parseRateInto parses a non-negative finite rate.
func parseRateInto(dst *float64, s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("bad rate %q", s)
	}
	if v < 0 || v != v || v > 1e12 {
		return fmt.Errorf("rate %q out of range", s)
	}
	*dst = v
	return nil
}
