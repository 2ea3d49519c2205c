package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Adversarial sample generators for the sketch-accuracy property tests.
// Each is deterministic in (rng) so failures reproduce.
var sketchDists = []struct {
	name string
	gen  func(rng *rand.Rand) float64
}{
	{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() * 1000 }},
	{"bounded-pareto", func(rng *rand.Rand) float64 {
		// α=1.1 on [1, 1e5]: the heavy-tailed job-size shape of the
		// open-system generators.
		const alpha, lo, hi = 1.1, 1.0, 1e5
		u := rng.Float64()
		la, ha := math.Pow(lo, -alpha), math.Pow(hi, -alpha)
		return math.Pow(la-u*(la-ha), -1/alpha)
	}},
	{"bimodal", func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return 10 + rng.NormFloat64()
		}
		return 1000 + 10*rng.NormFloat64()
	}},
	{"constant", func(rng *rand.Rand) float64 { return 42.5 }},
}

// rankOf returns the fraction of sorted xs that are <= v (the empirical
// CDF at v), the quantity the documented rank-error bound speaks about.
func rankOf(sorted []float64, v float64) float64 {
	i := sort.SearchFloat64s(sorted, v)
	// Count equal values as covered: the estimate sitting anywhere
	// inside a run of duplicates is rank-exact.
	j := i
	for j < len(sorted) && sorted[j] == v {
		j++
	}
	lo, hi := float64(i)/float64(len(sorted)), float64(j)/float64(len(sorted))
	return (lo + hi) / 2
}

// TestTDigestAccuracyBounds: P50/P90/P99 estimates stay within the
// documented rank-error bound of the exact order statistics, on every
// adversarial distribution.
func TestTDigestAccuracyBounds(t *testing.T) {
	const n = 200_000
	for _, dist := range sketchDists {
		dist := dist
		t.Run(dist.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			td := NewDefaultTDigest()
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = dist.gen(rng)
				td.Add(xs[i])
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.5, 0.9, 0.99} {
				est := td.Quantile(q)
				if dist.name == "constant" {
					if est != 42.5 {
						t.Fatalf("q=%.2f: constant stream estimated %v, want 42.5", q, est)
					}
					continue
				}
				gotRank := rankOf(sorted, est)
				bound := td.MaxRankError(q)
				if err := math.Abs(gotRank - q); err > bound {
					t.Errorf("q=%.2f: estimate %.6g sits at rank %.5f (err %.5f > bound %.5f)",
						q, est, gotRank, err, bound)
				}
			}
			if c := td.Centroids(); float64(c) > 2*td.compression {
				t.Fatalf("%d centroids, budget %g", c, td.compression)
			}
		})
	}
}

// TestTDigestMergeCommutative: merge(a,b) and merge(b,a) produce
// byte-identical centroid state — the merge sorts the union by (mean,
// weight) and recompresses, so operand order cannot matter.
func TestTDigestMergeCommutative(t *testing.T) {
	build := func(seed int64, n int, gen func(*rand.Rand) float64) *TDigest {
		rng := rand.New(rand.NewSource(seed))
		td := NewTDigest(128)
		for i := 0; i < n; i++ {
			td.Add(gen(rng))
		}
		return td
	}
	for _, dist := range sketchDists {
		a1 := build(1, 40_000, dist.gen)
		b1 := build(2, 25_000, dist.gen)
		a2 := build(1, 40_000, dist.gen)
		b2 := build(2, 25_000, dist.gen)
		a1.Merge(b1) // a ← a∪b
		b2.Merge(a2) // b ← b∪a
		if len(a1.means) != len(b2.means) {
			t.Fatalf("%s: centroid counts differ: %d vs %d", dist.name, len(a1.means), len(b2.means))
		}
		for i := range a1.means {
			if a1.means[i] != b2.means[i] || a1.weights[i] != b2.weights[i] {
				t.Fatalf("%s: centroid %d differs: (%v,%v) vs (%v,%v)", dist.name, i,
					a1.means[i], a1.weights[i], b2.means[i], b2.weights[i])
			}
		}
		if a1.n != b2.n || a1.min != b2.min || a1.max != b2.max {
			t.Fatalf("%s: digest metadata differs", dist.name)
		}
	}
}

// TestTDigestShardedMergeMatchesSingleStream: splitting one stream over
// k independently fed digests and merging them estimates the same
// quantiles as the single-stream digest, within the documented bound
// of both. testing/quick drives the shard count and seed.
func TestTDigestShardedMergeMatchesSingleStream(t *testing.T) {
	check := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%7 + 2 // 2..8 shards
		rng := rand.New(rand.NewSource(seed))
		dist := sketchDists[int(uint64(seed)%uint64(len(sketchDists)-1))] // constant is covered elsewhere
		const n = 60_000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = dist.gen(rng)
		}
		single := NewDefaultTDigest()
		shards := make([]*TDigest, k)
		for i := range shards {
			shards[i] = NewDefaultTDigest()
		}
		for i, x := range xs {
			single.Add(x)
			shards[i%k].Add(x)
		}
		merged := NewDefaultTDigest()
		for _, sh := range shards {
			merged.Merge(sh)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			for _, td := range []*TDigest{single, merged} {
				est := td.Quantile(q)
				// A merged digest compounds two compressions; allow 2×
				// the single-stream bound.
				if math.Abs(rankOf(sorted, est)-q) > 2*td.MaxRankError(q) {
					return false
				}
			}
		}
		return merged.N() == single.N()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMomentsMergeExact: Welford merge reproduces the
// concatenated stream's moments to floating-point accuracy, and the
// digest rides along.
func TestStreamMomentsMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := NewStream()
	parts := []*Stream{NewStream(), NewStream(), NewStream()}
	var xs []float64
	for i := 0; i < 30_000; i++ {
		x := sketchDists[1].gen(rng) // bounded-pareto, the nasty one
		xs = append(xs, x)
		all.Add(x)
		parts[i%3].Add(x)
	}
	merged := NewStream()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.N() != all.N() {
		t.Fatalf("N: %d vs %d", merged.N(), all.N())
	}
	relClose := func(name string, a, b float64) {
		if b == 0 && a == 0 {
			return
		}
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			t.Fatalf("%s: merged %v vs single %v", name, a, b)
		}
	}
	relClose("mean", merged.Mean(), all.Mean())
	relClose("std", merged.Std(), all.Std())
	relClose("sum", merged.Sum(), all.Sum())
	if merged.Min() != all.Min() || merged.Max() != all.Max() {
		t.Fatalf("extremes differ")
	}
	exact := Summarize(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		est := merged.Quantile(q)
		exactQ := exact.Quantile(q)
		if exactQ != 0 && math.Abs(est-exactQ)/exactQ > 0.05 {
			t.Fatalf("q=%.2f: merged stream %.6g vs exact %.6g", q, est, exactQ)
		}
	}
}

// TestSummarizeGuard: Summarize past ExactLimit panics with a pointer
// to Stream instead of silently retaining O(n) memory.
func TestSummarizeGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Summarize over ExactLimit did not panic")
		}
	}()
	Summarize(make([]float64, ExactLimit+1))
}
