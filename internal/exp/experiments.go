package exp

import (
	"fmt"
	"slices"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/nas"
)

// SitePoint is one x-value of Figures 2 and 3: where the processes of an
// n-process request landed.
type SitePoint struct {
	N           int
	HostsBySite map[string]int
	CoresBySite map[string]int // "allocated cores" = mapped processes
}

// TimePoint is one x-value of Figure 4.
type TimePoint struct {
	N        int
	Strategy core.Strategy
	Seconds  float64
}

// The paper's x-axes: n = 100..600 step 50 for Figures 2 and 3, and the
// EP (left) and IS (right) process counts of Figure 4.
var (
	fig23Ns  = []int{100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600}
	fig4EPNs = []int{32, 64, 128, 256, 512}
	fig4ISNs = []int{32, 64, 128}
)

// CoAllocationSweep measures Figure 2 (strategy = Concentrate) or
// Figure 3 (strategy = Spread) at the process counts ns: it submits the
// hostname program for each n against a booted world and records the
// per-site allocation of every run.
func CoAllocationSweep(w *World, strategy core.Strategy, ns []int) ([]SitePoint, error) {
	var out []SitePoint
	for _, n := range ns {
		res, err := w.Submit(mpd.JobSpec{
			Program:  "hostname",
			N:        n,
			R:        1,
			Strategy: strategy,
			Timeout:  10 * time.Minute,
		})
		if err != nil {
			return out, fmt.Errorf("n=%d: %w", n, err)
		}
		if f := res.Failures(); f > 0 {
			return out, fmt.Errorf("n=%d: %d slots failed", n, f)
		}
		out = append(out, SitePoint{
			N:           n,
			HostsBySite: res.Assignment.HostsBySite(),
			CoresBySite: res.Assignment.ProcsBySite(),
		})
	}
	return out, nil
}

// NASSweep reproduces one curve of Figure 4: the named model program
// under one strategy across process counts. Each run reports the
// maximum process time (the paper's "Total time").
func NASSweep(w *World, program string, strategy core.Strategy, ns []int) ([]TimePoint, error) {
	var out []TimePoint
	for _, n := range ns {
		res, err := w.Submit(mpd.JobSpec{
			Program:  program,
			N:        n,
			R:        1,
			Strategy: strategy,
			Timeout:  30 * time.Minute,
		})
		if err != nil {
			return out, fmt.Errorf("%s n=%d: %w", program, n, err)
		}
		if f := res.Failures(); f > 0 {
			return out, fmt.Errorf("%s n=%d: %d slots failed", program, n, f)
		}
		raw, ok := res.OutputOf(0, 0)
		if !ok {
			return out, fmt.Errorf("%s n=%d: rank 0 reported nothing", program, n)
		}
		d, err := nas.ParseModelOutput(raw)
		if err != nil {
			return out, err
		}
		out = append(out, TimePoint{N: n, Strategy: strategy, Seconds: d.Seconds()})
	}
	return out, nil
}

// Fig2 runs the concentrate co-allocation sweep on a fresh world.
func Fig2(opts Options) ([]SitePoint, error) { return fig23(opts, core.Concentrate) }

// Fig3 runs the spread co-allocation sweep on a fresh world.
func Fig3(opts Options) ([]SitePoint, error) { return fig23(opts, core.Spread) }

func fig23(opts Options, strategy core.Strategy) ([]SitePoint, error) {
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return nil, err
	}
	return CoAllocationSweep(w, strategy, fig23Ns)
}

// Fig4EP runs both strategies of the EP benchmark (Figure 4, left)
// across a pool of up to `workers` OS threads (one world per strategy).
func Fig4EP(opts Options, workers int) ([]TimePoint, error) {
	return fig4("ep-model-B", opts, fig4EPNs, workers)
}

// Fig4IS runs both strategies of the IS benchmark (Figure 4, right).
func Fig4IS(opts Options, workers int) ([]TimePoint, error) {
	return fig4("is-model-B", opts, fig4ISNs, workers)
}

// fig4 measures both strategy curves, concentrate first, each on a
// world of its own.
func fig4(program string, opts Options, ns []int, workers int) ([]TimePoint, error) {
	curves, err := sweep([]core.Strategy{core.Concentrate, core.Spread}, workers, func(st core.Strategy) ([]TimePoint, error) {
		w := NewWorld(opts)
		defer w.Close()
		if err := w.Boot(); err != nil {
			return nil, err
		}
		return NASSweep(w, program, st, ns)
	})
	return slices.Concat(curves...), err
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Site    string
	Cluster string
	CPU     string
	Nodes   int
	CPUs    int
	Cores   int
}

// Table1 regenerates the resource inventory from the grid model.
func Table1() []Table1Row {
	g := grid.Grid5000()
	rows := make([]Table1Row, 0, len(g.Clusters))
	for _, c := range g.Clusters {
		rows = append(rows, Table1Row{
			Site: c.Site, Cluster: c.Name, CPU: c.CPU,
			Nodes: c.Nodes, CPUs: c.CPUs, Cores: c.Cores,
		})
	}
	return rows
}
