package exp

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"text/tabwriter"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
)

// Sheet is the one output form of every experiment: a header row, then
// one row of cells per point. An empty row separates two blocks, each
// with its own header. CSV and Table print the same cells.
type Sheet [][]string

// CSV joins each row's cells with commas, one line per row. A cell is
// written as is: none is quoted.
func (s Sheet) CSV() string {
	var b strings.Builder
	for _, r := range s {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Table prints title, then the cells aligned in columns; each block is
// aligned on its own.
func (s Sheet) Table(title string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, r := range s {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return b.String()
}

// newSheet starts a sheet whose header is the comma-separated names.
func newSheet(names string) Sheet { return Sheet{strings.Split(names, ",")} }

// add appends a row of one cell per value, value i printed with verb i
// of the comma-separated verbs.
func (s *Sheet) add(verbs string, vals ...any) {
	r := strings.Split(verbs, ",")
	for i, v := range r {
		r[i] = fmt.Sprintf(v, vals[i])
	}
	*s = append(*s, r)
}

// Table1Sheet is the paper's Table 1: one row per cluster.
func Table1Sheet() Sheet {
	s := newSheet("site,cluster,cpu,nodes,cpus,cores")
	for _, r := range Table1() {
		s.add("%s,%s,%s,%d,%d,%d", r.Site, r.Cluster, r.CPU, r.Nodes, r.CPUs, r.Cores)
	}
	return s
}

// SiteSheet is the data of Figure 2 or 3: one row per demanded process
// count, with a hosts_<site> and a cores_<site> column per site in the
// paper's legend order — the format the paper's gnuplot scripts would
// consume.
func SiteSheet(pts []SitePoint) Sheet {
	s := Sheet{{"n"}}
	for _, site := range grid.Sites {
		s[0] = append(s[0], "hosts_"+site, "cores_"+site)
	}
	for _, p := range pts {
		r := []string{fmt.Sprint(p.N)}
		for _, site := range grid.Sites {
			r = append(r, fmt.Sprint(p.HostsBySite[site]), fmt.Sprint(p.CoresBySite[site]))
		}
		s = append(s, r)
	}
	return s
}

// TimeSheet is the data of Figure 4: one row per process count, one
// column per strategy curve of the paper; a point no curve measured is
// an empty cell.
func TimeSheet(pts []TimePoint) Sheet {
	rows := map[int][]string{}
	for _, p := range pts {
		r := rows[p.N]
		if r == nil {
			r = []string{fmt.Sprint(p.N), "", ""}
			rows[p.N] = r
		}
		// Figure 4 plots exactly the paper's two curves. String()
		// normalizes the zero-value Strategy to spread.
		switch p.Strategy.String() {
		case core.Concentrate.String():
			r[1] = fmt.Sprintf("%.6f", p.Seconds)
		case core.Spread.String():
			r[2] = fmt.Sprintf("%.6f", p.Seconds)
		}
	}
	s := newSheet("n,concentrate_s,spread_s")
	for _, n := range slices.Sorted(maps.Keys(rows)) {
		s = append(s, rows[n])
	}
	return s
}

// ConcurrentSheet is a concurrent-jobs sweep: one row per (strategy, K)
// point.
func ConcurrentSheet(pts []ConcurrentPoint) Sheet {
	s := newSheet("strategy,k,n,r,completed,failed,attempts,sched_conflicts," +
		"reserve_ok,reserve_nok,conflict_rate,mean_sites,mean_hosts,mean_job_s,makespan_s")
	for _, p := range pts {
		s.add("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.2f,%.2f,%.3f,%.3f",
			p.Strategy, p.K, p.N, p.R, p.Completed, p.Failed, p.Attempts, p.SchedConflicts,
			p.ReserveOK, p.ReserveNOK, p.ConflictRate, p.MeanSites, p.MeanHosts,
			p.MeanJobSeconds, p.MakespanSeconds)
	}
	return s
}

// EstimatorSheet is the latency-estimator study: one row per estimator
// kind.
func EstimatorSheet(pts []EstimatorPoint) Sheet {
	s := newSheet("kind,rounds,tau")
	for _, p := range pts {
		s.add("%s,%d,%.4f", p.Kind, p.Rounds, p.Tau)
	}
	return s
}
