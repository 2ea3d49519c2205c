package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics and moments for a sample.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, Std     float64
	P50, P90, P99 float64
	Sum           float64
	sorted        []float64
	sumSq         float64
}

// ExactLimit is the largest sample Summarize accepts. Summarize copies
// and sorts its input — O(n) memory per metric — which is fine for the
// bounded result sets of the closed-batch experiment families and a
// silent lie at open-system scale: a 10M-submission sweep would retain
// hundreds of MB per metric. Calls above the limit panic, pointing at
// Stream, the O(1)-memory accumulator the open sweeps use. The budget
// test on a 1M-observation Stream run enforces the other side of the
// contract.
const ExactLimit = 1 << 22

// Summarize computes a Summary over xs. It copies the input, so it is
// only for bounded result sets: above ExactLimit it panics — feed a
// Stream instead.
func Summarize(xs []float64) Summary {
	if len(xs) > ExactLimit {
		panic(fmt.Sprintf("stats: Summarize over %d samples retains O(n) memory; use stats.Stream for unbounded metrics", len(xs)))
	}
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.sorted = append([]float64(nil), xs...)
	sort.Float64s(s.sorted)
	s.Min = s.sorted[0]
	s.Max = s.sorted[len(s.sorted)-1]
	for _, x := range xs {
		s.Sum += x
		s.sumSq += x * x
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		v := (s.sumSq - s.Sum*s.Sum/float64(s.N)) / float64(s.N-1)
		if v > 0 {
			s.Std = math.Sqrt(v)
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func (s Summary) Quantile(q float64) float64 {
	if s.N == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[s.N-1]
	}
	pos := q * float64(s.N-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := pos - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// String renders a compact one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g mean=%.4g p90=%.4g max=%.4g std=%.4g",
		s.N, s.Min, s.P50, s.Mean, s.P90, s.Max, s.Std)
}

// KendallTau computes the Kendall rank correlation coefficient (tau-a)
// between two equally long score vectors. It is used to grade latency
// estimators against the true RTT ranking: 1 means identical ranking,
// -1 fully reversed, 0 uncorrelated. Ties count as discordant-neutral.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: KendallTau length mismatch")
	}
	n := len(a)
	if n < 2 {
		return 1
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da*db > 0:
				concordant++
			case da*db < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}
