package nas

import (
	"fmt"
	"math"

	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
)

// EPClass parameterizes the EP kernel: 2^M Gaussian pairs.
type EPClass struct {
	Name string
	M    uint // total pairs = 2^M
	// SxRef/SyRef are the NPB reference sums; zero means unverified
	// (custom sizes).
	SxRef, SyRef float64
}

// The official EP classes with their verification values (NPB ep.f).
var (
	EPClassS = EPClass{Name: "S", M: 24, SxRef: -3.247834652034740e+3, SyRef: -6.958407078382297e+3}
	EPClassW = EPClass{Name: "W", M: 25, SxRef: -2.863319731645753e+3, SyRef: -6.320053679109499e+3}
	EPClassA = EPClass{Name: "A", M: 28, SxRef: -4.295875165629892e+3, SyRef: -1.580732573678431e+4}
	EPClassB = EPClass{Name: "B", M: 30, SxRef: 4.033815542441498e+4, SyRef: -2.660669192809235e+4}
)

// EPResult is the kernel outcome.
type EPResult struct {
	Sx, Sy float64
	Q      [10]int64 // annulus counts
	Pairs  int64     // accepted pairs (sum of Q)
}

// EPChunk computes the EP kernel over pair indices [lo, hi). Pair i
// consumes stream values 2i+1 and 2i+2 of the EP random sequence, so
// any partition of [0, 2^M) over processes reproduces the sequential
// result exactly.
func EPChunk(lo, hi int64) EPResult {
	var res EPResult
	g := At(EPSeed, uint64(2*lo))
	for i := lo; i < hi; i++ {
		x1 := 2*g.Next() - 1
		x2 := 2*g.Next() - 1
		t := x1*x1 + x2*x2
		if t > 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		xk := x1 * f
		yk := x2 * f
		ax, ay := math.Abs(xk), math.Abs(yk)
		l := int(math.Max(ax, ay))
		res.Q[l]++
		res.Sx += xk
		res.Sy += yk
	}
	for _, q := range res.Q {
		res.Pairs += q
	}
	return res
}

// EPVerify checks a result against the class reference sums with NPB's
// relative tolerance.
func EPVerify(cls EPClass, r EPResult) error {
	if cls.SxRef == 0 && cls.SyRef == 0 {
		return nil // unofficial size: nothing to verify against
	}
	const eps = 1e-8
	if relErr(r.Sx, cls.SxRef) > eps {
		return fmt.Errorf("nas: EP class %s sx = %.15e, want %.15e", cls.Name, r.Sx, cls.SxRef)
	}
	if relErr(r.Sy, cls.SyRef) > eps {
		return fmt.Errorf("nas: EP class %s sy = %.15e, want %.15e", cls.Name, r.Sy, cls.SyRef)
	}
	return nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs((got - want) / want)
}

// epRange splits 2^M pairs evenly over size processes; rank gets
// [lo, hi).
func epRange(m uint, rank, size int) (lo, hi int64) {
	total := int64(1) << m
	per := total / int64(size)
	rem := total % int64(size)
	lo = int64(rank)*per + min64(int64(rank), rem)
	hi = lo + per
	if int64(rank) < rem {
		hi++
	}
	return lo, hi
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// EPProgram returns the real EP benchmark as an MPD program: every
// process computes its pair range, then the partial sums and annulus
// counts are combined with Allreduce exactly as NPB EP does (two scalar
// reductions plus the 10-bin count reduction).
func EPProgram(cls EPClass) mpd.Program {
	return func(env *mpd.Env) error {
		c, err := env.Comm()
		if err != nil {
			return err
		}
		lo, hi := epRange(cls.M, env.Rank, env.Size)
		res := EPChunk(lo, hi)

		sums, err := c.AllreduceF64([]float64{res.Sx, res.Sy}, mpi.OpSum)
		if err != nil {
			return err
		}
		qs := make([]int64, 10)
		copy(qs, res.Q[:])
		qsum, err := c.AllreduceI64(qs, mpi.OpSum)
		if err != nil {
			return err
		}
		global := EPResult{Sx: sums[0], Sy: sums[1]}
		copy(global.Q[:], qsum)
		for _, q := range global.Q {
			global.Pairs += q
		}
		if err := EPVerify(cls, global); err != nil {
			return err
		}
		fmt.Fprintf(&env.Out, "EP class %s: sx=%.10e sy=%.10e pairs=%d",
			cls.Name, global.Sx, global.Sy, global.Pairs)
		return nil
	}
}
