package exp

import (
	"time"

	"p2pmpi/internal/latency"
	"p2pmpi/internal/stats"
)

// EstimatorPoint grades one estimator kind on the live testbed: the
// Kendall tau between the submitter's measured peer ranking and the true
// base-latency ranking, after a number of probe rounds.
type EstimatorPoint struct {
	Kind   latency.Kind
	Rounds int
	Tau    float64
}

// EstimatorStudy implements the paper's stated future work ("improving
// the accuracy of our latency measurement so that it ... becomes less
// sensitive to external load"): it boots one world per estimator kind,
// one at a time, lets the submitter probe all 350 peers for the given
// number of rounds, and scores how well the resulting booking order
// matches the true latency order.
func EstimatorStudy(opts Options, kinds []latency.Kind, rounds int) ([]EstimatorPoint, error) {
	if kinds == nil {
		kinds = latency.Kinds
	}
	if rounds <= 0 {
		rounds = 4
	}
	return sweep(kinds, 1, func(kind latency.Kind) (EstimatorPoint, error) {
		o := opts
		o.Estimator = kind
		o.EstimatorWindow = 8
		w := NewWorld(o)
		defer w.Close()
		if err := w.Boot(); err != nil {
			return EstimatorPoint{}, err
		}
		// Boot already ran one probe round; run the remaining ones.
		for r := 1; r < rounds; r++ {
			w.RunFor(o.FrontalPingInterval + 5*time.Second)
		}
		return EstimatorPoint{
			Kind:   kind,
			Rounds: rounds,
			Tau:    rankingTau(w),
		}, nil
	})
}

// rankingTau correlates the frontal's latency estimates with the true
// one-way base latencies of every peer.
func rankingTau(w *World) float64 {
	cache := w.Frontal.Cache()
	ids := cache.IDs()
	truth := make([]float64, 0, len(ids))
	est := make([]float64, 0, len(ids))
	for _, id := range ids {
		e := cache.Latency(id)
		if e == latency.Unknown {
			continue
		}
		truth = append(truth, float64(w.Net.BaseOneWay(w.FrontalID, id)))
		est = append(est, float64(e))
	}
	if len(truth) < 2 {
		return 0
	}
	return stats.KendallTau(truth, est)
}
