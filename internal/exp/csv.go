package exp

import (
	"fmt"
	"slices"
	"strings"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// SitePointsCSV renders Figure 2/3 data as CSV, one row per demanded
// process count with hosts_<site> and cores_<site> columns — the format
// the paper's gnuplot scripts would consume.
func SitePointsCSV(pts []SitePoint) string {
	var b strings.Builder
	b.WriteString("n")
	for _, s := range grid.Sites {
		fmt.Fprintf(&b, ",hosts_%s,cores_%s", s, s)
	}
	b.WriteString("\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%d", p.N)
		for _, s := range grid.Sites {
			fmt.Fprintf(&b, ",%d,%d", p.HostsBySite[s], p.CoresBySite[s])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ConcurrentPointsCSV renders a concurrent-jobs sweep as CSV, one row
// per (strategy, K) point.
func ConcurrentPointsCSV(pts []ConcurrentPoint) string {
	var b strings.Builder
	b.WriteString("strategy,k,n,r,completed,failed,attempts,sched_conflicts," +
		"reserve_ok,reserve_nok,conflict_rate,mean_sites,mean_hosts,mean_job_s,makespan_s\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.2f,%.2f,%.3f,%.3f\n",
			p.Strategy, p.K, p.N, p.R, p.Completed, p.Failed, p.Attempts, p.SchedConflicts,
			p.ReserveOK, p.ReserveNOK, p.ConflictRate, p.MeanSites, p.MeanHosts,
			p.MeanJobSeconds, p.MakespanSeconds)
	}
	return b.String()
}

// TimePointsCSV renders Figure 4 data as CSV with one column per
// strategy.
func TimePointsCSV(pts []TimePoint) string {
	type row struct {
		conc, spread float64
		hasC, hasS   bool
	}
	rows := map[int]*row{}
	for _, p := range pts {
		r := rows[p.N]
		if r == nil {
			r = &row{}
			rows[p.N] = r
		}
		// Figure 4 plots exactly the paper's two curves. String()
		// normalizes the zero-value Strategy to spread.
		if name := p.Strategy.String(); name == core.Concentrate.String() {
			r.conc, r.hasC = p.Seconds, true
		} else if name == core.Spread.String() {
			r.spread, r.hasS = p.Seconds, true
		}
	}
	var b strings.Builder
	b.WriteString("n,concentrate_s,spread_s\n")
	for _, n := range timePointNs(pts) {
		r := rows[n]
		b.WriteString(fmt.Sprintf("%d,", n))
		if r.hasC {
			fmt.Fprintf(&b, "%.6f", r.conc)
		}
		b.WriteString(",")
		if r.hasS {
			fmt.Fprintf(&b, "%.6f", r.spread)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// timePointNs returns the distinct process counts of pts, ascending.
func timePointNs(pts []TimePoint) []int {
	ns := make([]int, len(pts))
	for i, p := range pts {
		ns[i] = p.N
	}
	slices.Sort(ns)
	return slices.Compact(ns)
}

// Table1CSV renders the inventory as CSV.
func Table1CSV() string {
	var b strings.Builder
	b.WriteString("site,cluster,cpu,nodes,cpus,cores\n")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%d\n",
			r.Site, r.Cluster, r.CPU, r.Nodes, r.CPUs, r.Cores)
	}
	return b.String()
}
