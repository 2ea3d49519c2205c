package nas

import (
	"fmt"
	"time"

	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
)

// CostModel calibrates the virtual-time NAS runs. The constants absorb
// everything between the abstract kernel and the paper's 2008 Java
// runtime (JIT quality, object serialization, GC): they were tuned so
// the Figure 4 curves land in the paper's range, and the *shape* of the
// figures — who wins where — emerges from allocation, contention and
// WAN latency, not from these scalars. internal/exp's
// TestFig4ISCrossover and TestFig4EPEquilibrium pin that shape.
type CostModel struct {
	// EPFlopsPerPair and EPBytesPerPair cost one Gaussian pair.
	EPFlopsPerPair float64
	EPBytesPerPair float64
	// ISFlopsPerKey and ISBytesPerKey cost one key per ranking
	// iteration (histogram + counting rank passes).
	ISFlopsPerKey float64
	ISBytesPerKey float64
}

// DefaultCostModel is the calibration used by the experiment harness.
func DefaultCostModel() CostModel {
	return CostModel{
		EPFlopsPerPair: 540,
		EPBytesPerPair: 400,
		ISFlopsPerKey:  150,
		ISBytesPerKey:  300,
	}
}

// reportElapsed measures the synchronized kernel span: all processes
// barrier, run body, and the maximum elapsed time is printed by rank 0
// (the "Total time" of Figure 4).
func reportElapsed(env *mpd.Env, c *mpi.Comm, body func() error) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	start := env.RT.Now()
	if err := body(); err != nil {
		return err
	}
	elapsed := env.RT.Now().Sub(start).Seconds()
	maxed, err := c.AllreduceF64([]float64{elapsed}, mpi.OpMax)
	if err != nil {
		return err
	}
	if env.Rank == 0 && env.Replica == 0 {
		fmt.Fprintf(&env.Out, "%.6f", maxed[0])
	}
	return nil
}

// EPModelProgram is the virtual-time EP run: the exact communication
// schedule of EPProgram (two scalar allreduces plus the annulus-count
// reduction) with the computation charged to the performance model.
func EPModelProgram(cls EPClass, cost CostModel) mpd.Program {
	return func(env *mpd.Env) error {
		c, err := env.Comm()
		if err != nil {
			return err
		}
		return reportElapsed(env, c, func() error {
			lo, hi := epRange(cls.M, env.Rank, env.Size)
			pairs := float64(hi - lo)
			env.Compute(pairs*cost.EPFlopsPerPair, pairs*cost.EPBytesPerPair)
			if _, err := c.Allreduce(mpi.Data{Virtual: 16}, mpi.VirtualCombiner); err != nil {
				return err
			}
			if _, err := c.Allreduce(mpi.Data{Virtual: 16}, mpi.VirtualCombiner); err != nil {
				return err
			}
			_, err := c.Allreduce(mpi.Data{Virtual: 80}, mpi.VirtualCombiner)
			return err
		})
	}
}

// ISModelProgram is the virtual-time IS run: per iteration, the bucket
// histogram allreduce, the send-count alltoall and the key alltoallv
// (with modelled sizes), plus the local passes charged to the
// performance model — NPB IS's schedule at Class B scale without
// allocating gigabytes.
func ISModelProgram(cls ISClass, cost CostModel) mpd.Program {
	return func(env *mpd.Env) error {
		c, err := env.Comm()
		if err != nil {
			return err
		}
		return reportElapsed(env, c, func() error {
			size := int64(c.Size())
			myKeys := cls.TotalKeys() / size
			keyBytes := int64(4)

			for iter := 0; iter < cls.Iterations; iter++ {
				// Histogram + counting-rank passes over my keys.
				env.Compute(float64(myKeys)*cost.ISFlopsPerKey,
					float64(myKeys)*cost.ISBytesPerKey)

				// Bucket histogram reduction (NUM_BUCKETS int32 counts).
				bucketBytes := int64(cls.Buckets() * 4)
				if _, err := c.Allreduce(mpi.Data{Virtual: bucketBytes}, mpi.VirtualCombiner); err != nil {
					return err
				}
				// Send counts, one int per destination.
				counts := make([]mpi.Data, c.Size())
				for i := range counts {
					counts[i] = mpi.Data{Virtual: 8}
				}
				if _, err := c.Alltoall(counts); err != nil {
					return err
				}
				// Key redistribution: my keys leave evenly (the bucket
				// split balances keys by construction).
				parts := make([]mpi.Data, c.Size())
				per := myKeys * keyBytes / size
				for i := range parts {
					parts[i] = mpi.Data{Virtual: per}
				}
				if _, err := c.Alltoallv(parts); err != nil {
					return err
				}
			}
			// Full verification pass: one more sweep over the keys and
			// the boundary/count exchanges.
			env.Compute(float64(myKeys)*cost.ISFlopsPerKey/2,
				float64(myKeys)*cost.ISBytesPerKey/2)
			if _, err := c.Allreduce(mpi.Data{Virtual: 8}, mpi.VirtualCombiner); err != nil {
				return err
			}
			return nil
		})
	}
}

// ParseModelOutput reads the seconds printed by reportElapsed.
func ParseModelOutput(out []byte) (time.Duration, error) {
	var secs float64
	if _, err := fmt.Sscanf(string(out), "%f", &secs); err != nil {
		return 0, fmt.Errorf("nas: cannot parse model output %q: %w", out, err)
	}
	return time.Duration(secs * float64(time.Second)), nil
}
