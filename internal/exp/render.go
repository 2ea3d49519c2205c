package exp

import (
	"fmt"
	"strings"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// RenderTable1 prints the resource inventory in the paper's layout.
func RenderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Characteristics of available computing resources\n")
	fmt.Fprintf(&b, "%-10s %-11s %-18s %7s %6s %6s\n",
		"Site", "Cluster", "CPU", "#Nodes", "#CPUs", "#Cores")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "%-10s %-11s %-18s %7d %6d %6d\n",
			r.Site, r.Cluster, r.CPU, r.Nodes, r.CPUs, r.Cores)
	}
	g := grid.Grid5000()
	fmt.Fprintf(&b, "%-10s %-11s %-18s %7d %6d %6d\n",
		"total", "", "", g.TotalHosts(), g.TotalHosts()*2, g.TotalCores())
	return b.String()
}

// RenderSitePoints prints a Figure 2/3 data table: one row per demanded
// process count, one column pair (hosts, cores) per site in the paper's
// legend order.
func RenderSitePoints(title string, pts []SitePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s", "n")
	for _, s := range grid.Sites {
		fmt.Fprintf(&b, " %9s", abbrev(s)+"(h/c)")
	}
	fmt.Fprintf(&b, " %9s\n", "total(h/c)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6d", p.N)
		th, tc := 0, 0
		for _, s := range grid.Sites {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("%d/%d", p.HostsBySite[s], p.CoresBySite[s]))
			th += p.HostsBySite[s]
			tc += p.CoresBySite[s]
		}
		fmt.Fprintf(&b, " %9s\n", fmt.Sprintf("%d/%d", th, tc))
	}
	return b.String()
}

func abbrev(site string) string {
	if len(site) > 3 {
		return site[:3]
	}
	return site
}

// RenderConcurrentPoints prints a concurrent-jobs sweep: one row per K,
// with per-strategy allocation footprint, completion time and
// reservation-conflict rate.
func RenderConcurrentPoints(title string, pts []ConcurrentPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %5s %5s %9s %9s %9s %10s %11s %10s\n",
		"k", "done", "fail", "sites", "hosts", "job(s)", "makespan", "rsv ok/nok", "conflicts")
	for _, p := range pts {
		fmt.Fprintf(&b, "%4d %5d %5d %9.2f %9.2f %9.3f %10.3f %5d/%-5d %9.1f%%\n",
			p.K, p.Completed, p.Failed, p.MeanSites, p.MeanHosts,
			p.MeanJobSeconds, p.MakespanSeconds, p.ReserveOK, p.ReserveNOK,
			100*p.ConflictRate)
	}
	return b.String()
}

// RenderTimePoints prints a Figure 4 data table: one row per process
// count, one column per strategy.
func RenderTimePoints(title string, pts []TimePoint) string {
	byN := map[int]map[core.Strategy]float64{}
	for _, p := range pts {
		if byN[p.N] == nil {
			byN[p.N] = map[core.Strategy]float64{}
		}
		byN[p.N][p.Strategy] = p.Seconds
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s %14s %14s\n", "n", "concentrate(s)", "spread(s)")
	for _, n := range timePointNs(pts) {
		fmt.Fprintf(&b, "%6d %14.3f %14.3f\n",
			n, byN[n][core.Concentrate], byN[n][core.Spread])
	}
	return b.String()
}
