package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty N = %d", s.N)
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("quantile of empty sample should be NaN")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if got := s.Quantile(0.25); got != 2.5 {
		t.Fatalf("q25 = %v, want 2.5", got)
	}
	if s.Quantile(0) != 0 || s.Quantile(1) != 10 {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if tau := KendallTau(a, a); tau != 1 {
		t.Fatalf("tau(self) = %v", tau)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if tau := KendallTau(a, rev); tau != -1 {
		t.Fatalf("tau(rev) = %v", tau)
	}
}

func TestKendallTauSymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 2 {
			return true
		}
		a, b = a[:n], b[:n]
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		return KendallTau(a, b) == KendallTau(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KendallTau([]float64{1}, []float64{1, 2})
}
