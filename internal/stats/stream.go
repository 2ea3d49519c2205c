package stats

import (
	"fmt"
	"math"
)

// Stream is the O(1)-memory counterpart of Summarize: an online
// mean/variance accumulator (Welford) fused with a t-digest quantile
// sketch. One Stream per metric is the unit of the open-system sweeps —
// ten million submissions cost the same few tens of KB as ten.
//
// Streams merge: Merge combines two independently fed Streams into the
// Stream of the concatenated input (moments exactly, quantiles within
// the digest's documented bounds), so per-shard accumulation composes.
type Stream struct {
	n        int64
	mean, m2 float64
	sum      float64
	min, max float64
	digest   *TDigest
}

// NewStream returns an empty Stream at the default digest compression.
func NewStream() *Stream { return NewStreamCompression(DefaultCompression) }

// NewStreamCompression returns an empty Stream with an explicit
// t-digest centroid budget.
func NewStreamCompression(compression float64) *Stream {
	return &Stream{
		min:    math.Inf(1),
		max:    math.Inf(-1),
		digest: NewTDigest(compression),
	}
}

// Add records one observation in O(1) amortized time and memory.
func (s *Stream) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.digest.Add(x)
}

// Merge folds o into s: the result is the Stream of both inputs'
// observations. Moments combine exactly (Chan et al.'s parallel
// update); quantiles combine through the digest merge. o is unchanged
// apart from a digest flush.
func (s *Stream) Merge(o *Stream) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		s.n, s.mean, s.m2, s.sum = o.n, o.mean, o.m2, o.sum
		s.min, s.max = o.min, o.max
		s.digest.Merge(o.digest)
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	tot := n1 + n2
	s.m2 += o.m2 + delta*delta*n1*n2/tot
	s.mean += delta * n2 / tot
	s.n += o.n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.digest.Merge(o.digest)
}

// N returns the observation count.
func (s *Stream) N() int64 { return s.n }

// Sum returns the running sum.
func (s *Stream) Sum() float64 { return s.sum }

// Mean returns the running mean (0 when empty).
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Std returns the running sample standard deviation.
func (s *Stream) Std() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.m2 / float64(s.n-1)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Min and Max return the exact observed extremes (0 when empty).
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile estimates the q-quantile from the sketch (NaN when empty).
func (s *Stream) Quantile(q float64) float64 { return s.digest.Quantile(q) }

// Digest exposes the underlying sketch (accuracy tests, RetainedBytes).
func (s *Stream) Digest() *TDigest { return s.digest }

// String renders a compact one-line summary, mirroring Summary.String.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g mean=%.4g p90=%.4g max=%.4g std=%.4g",
		s.n, s.Min(), s.Quantile(0.50), s.Mean(), s.Quantile(0.90), s.Max(), s.Std())
}
