// Strategies: deploy the modelled Grid'5000 testbed and compare where
// the spread, concentrate and mixed strategies place a 250-process job —
// the co-allocation experiment of the paper's §5.1 at one x-value —
// then boot a synthetic 200-host grid and show an extension beyond the
// paper (comm-aware placement) at work beyond the paper's testbed.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"p2pmpi"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	fmt.Fprintln(out, "strategies: booting the simulated Grid'5000 (350 peers, 6 sites)...")
	if err := compare(out, p2pmpi.DefaultWorldOptions(7), 250, p2pmpi.Concentrate, p2pmpi.Spread, p2pmpi.Mixed); err != nil {
		return err
	}

	// Beyond the paper: the placement set holds more than the paper's
	// strategies and the testbed is not pinned to Table 1. Boot a synthetic grid (8 sites x 25
	// hosts, seeded RTT draws) and compare a latency-greedy paper
	// strategy with the comm-aware extension, which grows a cluster of
	// hosts with minimal estimated pairwise RTT.
	spec, err := p2pmpi.ParseTopologySpec("synth:S=8,H=25,C=2,seed=3")
	if err != nil {
		return err
	}
	opts := p2pmpi.DefaultWorldOptions(7)
	opts.Topology = spec
	fmt.Fprintf(out, "\nstrategies: booting a synthetic grid (%d peers, 8 sites)...\n", spec.TotalHosts())
	fmt.Fprintf(out, "registered strategies: %v\n", p2pmpi.PlacementNames())
	return compare(out, opts, 64, p2pmpi.Spread, p2pmpi.CommAware, p2pmpi.MinSites)
}

// compare boots the world opts describes and reports where each
// strategy places one n-process job.
func compare(out io.Writer, opts p2pmpi.WorldOptions, n int, strategies ...p2pmpi.Strategy) error {
	w := p2pmpi.NewSimulatedGrid(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	for _, strategy := range strategies {
		if err := report(out, w, strategy, n); err != nil {
			return err
		}
	}
	return nil
}

// report submits one n-process hostname job and prints the footprint.
func report(out io.Writer, w *p2pmpi.World, strategy p2pmpi.Strategy, n int) error {
	res, err := w.Submit(p2pmpi.JobSpec{
		Program:  "hostname",
		N:        n,
		R:        1,
		Strategy: strategy,
		Timeout:  5 * time.Minute,
	})
	if err != nil {
		return fmt.Errorf("%v: %w", strategy, err)
	}
	fmt.Fprintf(out, "\n%-12s n=%d -> %d hosts used across %d site(s)\n",
		strategy, n, res.Assignment.UsedHosts(), len(res.Assignment.HostsBySite()))
	hosts := res.Assignment.HostsBySite()
	procs := res.Assignment.ProcsBySite()
	for _, site := range w.Grid.SiteNames() {
		if hosts[site] == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-10s %3d hosts, %3d processes\n", site, hosts[site], procs[site])
	}
	// Show a few of the echoed host names.
	var names []string
	for _, r := range res.Results[:min(5, len(res.Results))] {
		names = append(names, string(r.Output))
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  first ranks ran on: %v ...\n", names)
	return nil
}
