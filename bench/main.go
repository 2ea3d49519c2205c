// Command bench is the benchmark of this repository: five named
// workloads, seven end-to-end metrics per workload, per-layer metrics
// gathered from outside the layers, and a pinned digest of every
// simulated output. See README.md in this directory.
//
//	go run ./bench                               the whole suite
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                             one rep of one workload
//	go run ./bench -compare A B                  two result sets, row by row
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one rep of this workload (default: the whole suite)")
		seed     = flag.Int64("seed", 42, "seed every simulated input derives from")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one rep measures (it always makes at least two points)")
		trace    = flag.Int("trace", 0, "1: traced rep — spans, counters, CPU profile and kernels; prints the per-layer metrics")
		size     = flag.String("size", "full", "workload sizes: full (the benchmark) or smoke (self-test, warm-up)")
		out      = flag.String("out", "bench/out", "directory for BENCH_<workload>.json, layers.json and trace_<workload>.json")
		reps     = flag.Int("reps", 3, "suite: untraced reps per workload")
		compare  = flag.Bool("compare", false, "compare two result sets (files or directories): bench -compare A B")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two result sets, got %d arguments", flag.NArg())
			break
		}
		var worse int
		if worse, err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse > 0 {
			os.Exit(1)
		}
	case *workload != "":
		var rec *runRecord
		rec, err = runOnce(runConfig{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace != 0, Size: *size, OutDir: *out,
		})
		if err == nil {
			if err = printRun(rec); err == nil && !rec.Correct {
				os.Exit(1)
			}
		}
	default:
		err = runSuite(suiteConfig{Seed: *seed, Seconds: *seconds, Size: *size, OutDir: *out, Reps: *reps})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
