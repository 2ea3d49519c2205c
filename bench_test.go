package p2pmpi

// One benchmark per table/figure of the paper (the regeneration targets
// indexed in DESIGN.md §4) plus the ablation benches for the design
// choices DESIGN.md §5 calls out. Absolute wall time here measures the
// simulator; the *virtual* quantities the paper reports are attached via
// b.ReportMetric.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/latency"
	"p2pmpi/internal/stats"
)

// BenchmarkTable1Inventory regenerates Table 1.
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := grid.Grid5000()
		if g.TotalHosts() != 350 || g.TotalCores() != 1040 {
			b.Fatal("inventory mismatch")
		}
		_ = exp.RenderTable1()
	}
	b.ReportMetric(350, "hosts")
	b.ReportMetric(1040, "cores")
}

// BenchmarkFig2Concentrate regenerates Figure 2 (both panels: hosts and
// cores per site under concentrate, n = 100..600).
func BenchmarkFig2Concentrate(b *testing.B) {
	var last []exp.SitePoint
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig2(exp.DefaultOptions(42), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	// Headline check values from the paper: nancy saturates at 240 cores
	// and lyon appears at n=250.
	for _, p := range last {
		if p.N == 250 {
			b.ReportMetric(float64(p.CoresBySite[grid.Nancy]), "nancy-cores@250")
			b.ReportMetric(float64(p.HostsBySite[grid.Lyon]), "lyon-hosts@250")
		}
	}
}

// BenchmarkFig3Spread regenerates Figure 3 (spread allocation).
func BenchmarkFig3Spread(b *testing.B) {
	var last []exp.SitePoint
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig3(exp.DefaultOptions(42), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, p := range last {
		if p.N == 400 {
			// The paper's "stair at 400": nancy cores jump to 60+50.
			b.ReportMetric(float64(p.CoresBySite[grid.Nancy]), "nancy-cores@400")
		}
	}
}

// BenchmarkFig4EP regenerates Figure 4 left (EP CLASS B times).
func BenchmarkFig4EP(b *testing.B) {
	var last []exp.TimePoint
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig4EP(exp.DefaultOptions(42), nil, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, p := range last {
		if p.N == 32 {
			b.ReportMetric(p.Seconds, fmt.Sprintf("%s-sec@32", p.Strategy))
		}
	}
}

// BenchmarkFig4IS regenerates Figure 4 right (IS CLASS B times).
func BenchmarkFig4IS(b *testing.B) {
	var last []exp.TimePoint
	for i := 0; i < b.N; i++ {
		pts, err := exp.Fig4IS(exp.DefaultOptions(42), nil, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, p := range last {
		if p.N == 64 {
			b.ReportMetric(p.Seconds, fmt.Sprintf("%s-sec@64", p.Strategy))
		}
	}
}

// BenchmarkAblationLatencyEstimators grades every estimator's ranking
// quality (Kendall tau against the true site order) under the jitter
// model — the paper's stated future work on measurement accuracy.
func BenchmarkAblationLatencyEstimators(b *testing.B) {
	base := []time.Duration{
		87 * time.Microsecond / 2,
		10576 * time.Microsecond / 2,
		11612 * time.Microsecond / 2,
		12674 * time.Microsecond / 2,
		13204 * time.Microsecond / 2,
		17167 * time.Microsecond / 2,
	}
	truth := make([]float64, len(base))
	for i, d := range base {
		truth[i] = float64(d)
	}
	for _, kind := range latency.Kinds {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			var tauSum float64
			for i := 0; i < b.N; i++ {
				tb := latency.NewTable(kind, 8)
				for round := 0; round < 8; round++ {
					for s, d := range base {
						j := rng.NormFloat64() * (float64(d)*0.08 + float64(250*time.Microsecond))
						if j < 0 {
							j = -j
						}
						tb.Observe(fmt.Sprintf("site%d", s), d+time.Duration(j))
					}
				}
				est := make([]float64, len(base))
				for s := range base {
					est[s] = float64(tb.Estimate(fmt.Sprintf("site%d", s)))
				}
				tauSum += stats.KendallTau(truth, est)
			}
			b.ReportMetric(tauSum/float64(b.N), "kendall-tau")
		})
	}
}

// BenchmarkAblationMixedStrategy contrasts the three strategies on the
// same 250-process request over the Table 1 host list, reporting how
// many hosts and sites each uses.
func BenchmarkAblationMixedStrategy(b *testing.B) {
	g := grid.Grid5000()
	var slist []core.HostSlot
	for i, h := range g.Hosts {
		slist = append(slist, core.HostSlot{
			ID: h.ID, Site: h.Site, P: h.Cores,
			Latency: g.SiteRTT(grid.Nancy, h.Site) + time.Duration(i),
		})
	}
	for _, st := range []core.Strategy{core.Spread, core.Concentrate, core.Mixed} {
		st := st
		b.Run(st.String(), func(b *testing.B) {
			var hosts, sites int
			for i := 0; i < b.N; i++ {
				asg, err := core.Allocate(slist, 250, 1, st)
				if err != nil {
					b.Fatal(err)
				}
				hosts = asg.UsedHosts()
				sites = len(asg.HostsBySite())
			}
			b.ReportMetric(float64(hosts), "hosts-used")
			b.ReportMetric(float64(sites), "sites-used")
		})
	}
}

// BenchmarkAblationOverbooking measures allocation success against dead
// peers for different overbooking factors: the §4.2 "overbooking to
// anticipate unavailable hosts" design choice.
func BenchmarkAblationOverbooking(b *testing.B) {
	for _, factor := range []float64{1.0, 1.2, 1.5} {
		factor := factor
		b.Run(fmt.Sprintf("factor-%.1f", factor), func(b *testing.B) {
			success := 0
			for i := 0; i < b.N; i++ {
				if overbookTrial(b, factor, int64(i)) {
					success++
				}
			}
			b.ReportMetric(float64(success)/float64(b.N), "success-rate")
		})
	}
}

// overbookTrial books 8 processes on 16 peers of which 4 are dead, with
// the candidate fan-out bounded by the overbooking factor.
func overbookTrial(b *testing.B, factor float64, seed int64) bool {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	const peers, dead, n = 16, 4, 8
	deadSet := make(map[int]bool)
	for len(deadSet) < dead {
		deadSet[rng.Intn(peers)] = true
	}
	book := int(float64(n)*factor + 0.5)
	if book > peers {
		book = peers
	}
	alive := 0
	for i := 0; i < book; i++ {
		if !deadSet[i] {
			alive++
		}
	}
	return alive >= n
}
