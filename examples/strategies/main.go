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
	"log"
	"sort"
	"time"

	"p2pmpi"
)

func main() {
	fmt.Println("strategies: booting the simulated Grid'5000 (350 peers, 6 sites)...")
	w := p2pmpi.NewSimulatedGrid(p2pmpi.DefaultWorldOptions(7))
	if err := w.Boot(); err != nil {
		log.Fatalf("boot: %v", err)
	}
	for _, strategy := range []p2pmpi.Strategy{p2pmpi.Concentrate, p2pmpi.Spread, p2pmpi.Mixed} {
		report(w, strategy, 250)
	}
	w.Close()

	// Beyond the paper: the placement set holds more than the paper's
	// strategies and the testbed is not pinned to Table 1. Boot a synthetic grid (8 sites x 25
	// hosts, seeded RTT draws) and compare a latency-greedy paper
	// strategy with the comm-aware extension, which grows a cluster of
	// hosts with minimal estimated pairwise RTT.
	spec, err := p2pmpi.ParseTopologySpec("synth:S=8,H=25,C=2,seed=3")
	if err != nil {
		log.Fatal(err)
	}
	opts := p2pmpi.DefaultWorldOptions(7)
	opts.Topology = spec
	fmt.Printf("\nstrategies: booting a synthetic grid (%d peers, 8 sites)...\n", spec.TotalHosts())
	fmt.Printf("registered strategies: %v\n", p2pmpi.PlacementNames())
	sw := p2pmpi.NewSimulatedGrid(opts)
	defer sw.Close()
	if err := sw.Boot(); err != nil {
		log.Fatalf("boot synthetic: %v", err)
	}
	for _, strategy := range []p2pmpi.Strategy{p2pmpi.Spread, p2pmpi.CommAware, p2pmpi.MinSites} {
		report(sw, strategy, 64)
	}
}

// report submits one n-process hostname job and prints the footprint.
func report(w *p2pmpi.World, strategy p2pmpi.Strategy, n int) {
	res, err := w.Submit(p2pmpi.JobSpec{
		Program:  "hostname",
		N:        n,
		R:        1,
		Strategy: strategy,
		Timeout:  5 * time.Minute,
	})
	if err != nil {
		log.Fatalf("%v: %v", strategy, err)
	}
	fmt.Printf("\n%-12s n=%d -> %d hosts used across %d site(s)\n",
		strategy, n, res.Assignment.UsedHosts(), len(res.Assignment.HostsBySite()))
	hosts := res.Assignment.HostsBySite()
	procs := res.Assignment.ProcsBySite()
	for _, site := range w.Grid.SiteNames() {
		if hosts[site] == 0 {
			continue
		}
		fmt.Printf("  %-10s %3d hosts, %3d processes\n", site, hosts[site], procs[site])
	}
	// Show a few of the echoed host names.
	var names []string
	for _, r := range res.Results[:min(5, len(res.Results))] {
		names = append(names, string(r.Output))
	}
	sort.Strings(names)
	fmt.Printf("  first ranks ran on: %v ...\n", names)
}
