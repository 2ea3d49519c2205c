// Command p2pmpirun submits an MPI job, mirroring the paper's CLI:
//
//	p2pmpirun -n 16 -r 1 -a concentrate hostname
//
// Two modes:
//
//   - real (default): spins up an ephemeral submitter MPD on TCP, books
//     peers previously started with mpiboot through the given supernode,
//     runs the program and prints every process's output;
//   - -sim: deploys a modelled testbed in virtual time and submits there
//     (useful to explore allocations without a cluster). -grid selects
//     the testbed: the paper's Grid'5000 by default, or a synthetic
//     topology ("synth:S=12,H=400") scaling to thousands of hosts.
//
// The -a strategy accepts any placement name — the paper's
// spread/concentrate plus mixed, random, minsites and comm-aware.
//
// With -jobs K (K > 1) the same job is submitted K times concurrently
// through the multi-job scheduler: the copies contend for host slots,
// lose reservation races, back off and retry — printing one summary per
// job plus aggregate contention counters.
//
// With -mtbf (simulated modes only) seeded host churn runs underneath:
// hosts fail and recover with the given mean time between failures
// (-mttr tunes repair time), the submission runs with the mid-run
// failure detector armed (-detect), and a replication degree -r 2 or
// higher lets the job survive hosts dying under it — the quickest way
// to watch P2P-MPI's replica failover engage:
//
//	p2pmpirun -sim -grid synth:S=4,H=24 -n 4 -r 2 -mtbf 240s -seed 7 spin 60
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/nas"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/sched"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on args; it prints the job's output to stdout and
// its progress and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 1, "number of MPI processes")
	r := fs.Int("r", 1, "replication degree")
	alloc := fs.String("a", "concentrate", "allocation strategy: "+strings.Join(core.Names(), "|"))
	sim := fs.Bool("sim", false, "run against a simulated testbed (see -grid)")
	gridSpec := fs.String("grid", "grid5000", "simulated testbed (with -sim): grid5000 or synth:S=12,H=400,...")
	seed := fs.Int64("seed", 42, "simulation seed (with -sim)")
	snCount := fs.Int("sn", 0, "supernode-federation width K (with -sim; 0 defers to the -grid spec's sn value, default 1)")
	snAddr := fs.String("supernode", "127.0.0.1:8800", "supernode address (real mode)")
	mpdAddr := fs.String("mpd", "127.0.0.1:9050", "ephemeral submitter MPD address (real mode)")
	rsAddr := fs.String("rs", "127.0.0.1:9051", "ephemeral submitter RS address (real mode)")
	timeout := fs.Duration("timeout", 5*time.Minute, "job timeout")
	jobs := fs.Int("jobs", 1, "number of concurrent copies of the job")
	mtbf := fs.Duration("mtbf", 0, "inject seeded host churn with this mean time between failures (with -sim; 0 disables)")
	mttr := fs.Duration("mttr", time.Minute, "mean host repair time (with -mtbf)")
	detect := fs.Duration("detect", 10*time.Second, "mid-run failure-detector probe period (with -mtbf)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: p2pmpirun -n N [-r R] [-a strategy] [-sim] prog [args...]")
		return 2
	}
	strategy, err := core.ParseStrategy(*alloc)
	if err != nil {
		fmt.Fprintf(stderr, "p2pmpirun: %v\n", err)
		return 2
	}
	topo, err := grid.ParseTopologySpec(*gridSpec)
	if err != nil {
		fmt.Fprintf(stderr, "p2pmpirun: -grid: %v\n", err)
		return 2
	}
	if topo.IsSynthetic() && !*sim {
		fmt.Fprintln(stderr, "p2pmpirun: -grid selects a simulated testbed and requires -sim")
		return 2
	}
	if *mtbf > 0 && !*sim {
		fmt.Fprintln(stderr, "p2pmpirun: -mtbf (seeded churn injection) requires -sim")
		return 2
	}
	opts := exp.DefaultOptions(*seed)
	opts.Topology = topo
	opts.Supernodes = *snCount
	spec := mpd.JobSpec{
		Program:  fs.Arg(0),
		Args:     fs.Args()[1:],
		N:        *n,
		R:        *r,
		Strategy: strategy,
		Timeout:  *timeout,
	}
	fc := faults.Config{Seed: *seed, MTBF: *mtbf, MTTR: *mttr,
		Horizon: *timeout + 30*time.Minute}
	if *mtbf > 0 {
		spec.FailureDetect = *detect
	}

	if *jobs > 1 {
		var completed []*sched.Job
		if *sim {
			completed, err = onSim(stderr, opts, fc, func(w *exp.World) ([]*sched.Job, error) {
				cfg := sched.Config{Seed: opts.Seed}
				if fc.MTBF > 0 {
					// Under churn, failure outcomes (a host dying between
					// Acquire and launch, a rank losing every replica) are
					// re-booked like contention — the same classifier the
					// churn sweep uses.
					cfg.IsContention = exp.ChurnRetryable
				}
				jobs, _, err := exp.RunJobs(w, spec, *jobs, cfg)
				return jobs, err
			})
		} else {
			completed, err = concurrentReal(spec, *jobs, *snAddr, *mpdAddr, *rsAddr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "p2pmpirun: %v\n", err)
			return 1
		}
		return printJobs(stdout, completed)
	}

	var res *mpd.JobResult
	if *sim {
		res, err = onSim(stderr, opts, fc, func(w *exp.World) (*mpd.JobResult, error) { return w.Submit(spec) })
	} else {
		res, err = runReal(spec, *snAddr, *mpdAddr, *rsAddr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "p2pmpirun: %v\n", err)
		return 1
	}
	printResult(stdout, res)
	// Exit status follows the replication criterion: the job delivered
	// iff every rank completed through at least one replica. Individual
	// replica losses print as FAIL lines but do not fail a run the
	// replication degree absorbed (with R=1 the two criteria coincide).
	if res.LostRanks() > 0 {
		return 1
	}
	return 0
}

// printJobs prints one summary per job of a concurrent batch and the
// completed count; the status is 1 if a job failed.
func printJobs(w io.Writer, completed []*sched.Job) int {
	failed := 0
	for _, j := range completed {
		if j.Err != nil {
			failed++
			fmt.Fprintf(w, "job #%d FAILED after %d attempt(s): %v\n", j.ID, j.Attempts, j.Err)
			continue
		}
		sites := len(j.Result.Assignment.HostsBySite())
		fmt.Fprintf(w, "job #%d ok: %d procs on %d hosts across %d site(s), %v (attempts %d, lost races %d)\n",
			j.ID, j.Result.Assignment.TotalProcs(), j.Result.Assignment.UsedHosts(),
			sites, j.Latency().Round(time.Millisecond), j.Attempts, j.Conflicts)
	}
	fmt.Fprintf(w, "%d/%d jobs completed\n", len(completed)-failed, len(completed))
	if failed > 0 {
		return 1
	}
	return 0
}

// onSim boots the modelled testbed, arms host churn when fc asks for
// it, runs fn on the world in virtual time, and reports to log what the
// injection actually did.
func onSim[T any](log io.Writer, opts exp.Options, fc faults.Config, fn func(*exp.World) (T, error)) (T, error) {
	w := exp.NewWorld(opts)
	defer w.Close()
	fmt.Fprintf(log, "p2pmpirun: booting the simulated %s testbed (%d peers)...\n",
		opts.Topology, len(w.Peers))
	if err := w.Boot(); err != nil {
		var zero T
		return zero, err
	}
	var d *faults.Driver
	if fc.MTBF > 0 {
		fmt.Fprintf(log, "p2pmpirun: injecting churn (mtbf %s, mttr %s)\n", fc.MTBF, fc.MTTR)
		d = w.StartChurn(fc)
	}
	res, err := fn(w)
	if d != nil {
		st := d.Stop()
		fmt.Fprintf(log, "p2pmpirun: churn injected %d host failures (%.1f%% host-time down)\n",
			st.Failures, 100*st.DownFraction())
	}
	return res, err
}

// concurrentReal drives the scheduler on the wall clock through an
// ephemeral submitter MPD. Host capacities are unknown in advance, so
// the ledger is unconstrained and contention resolves purely through
// reservation races and backoff.
func concurrentReal(spec mpd.JobSpec, k int, snAddr, mpdAddr, rsAddr string) ([]*sched.Job, error) {
	submitter, err := startSubmitter(snAddr, mpdAddr, rsAddr)
	if err != nil {
		return nil, err
	}
	defer submitter.Close()
	sc := sched.New(vtime.Real{}, submitter, nil, sched.Config{Workers: k, Seed: int64(os.Getpid())})
	sc.Start()
	for i := 0; i < k; i++ {
		sc.Enqueue(spec)
	}
	jobs := sc.Wait(k)
	sc.Close()
	return jobs, nil
}

func runReal(spec mpd.JobSpec, snAddr, mpdAddr, rsAddr string) (*mpd.JobResult, error) {
	submitter, err := startSubmitter(snAddr, mpdAddr, rsAddr)
	if err != nil {
		return nil, err
	}
	defer submitter.Close()
	return submitter.Submit(spec)
}

// startSubmitter starts an ephemeral MPD with P=0 on TCP — it submits
// but does not compute — and lets registration and a ping round settle
// so booking sees latencies.
func startSubmitter(snAddr, mpdAddr, rsAddr string) (*mpd.MPD, error) {
	submitter := mpd.New(vtime.Real{}, transport.TCP{}, mpd.Config{
		Self: proto.PeerInfo{
			ID: "p2pmpirun-submitter", Site: "local",
			MPDAddr: mpdAddr, RSAddr: rsAddr,
		},
		P:    0,
		Seed: int64(os.Getpid()),
		Shared: &mpd.Shared{
			SupernodeAddr: snAddr,
			Programs:      nas.RealPrograms(), // the peers' table, so Submit accepts what they run
			PingInterval:  2 * time.Second,
		},
	})
	if err := submitter.Start(); err != nil {
		return nil, err
	}
	time.Sleep(3 * time.Second)
	return submitter, nil
}

func printResult(w io.Writer, res *mpd.JobResult) {
	fmt.Fprintf(w, "job %s finished in %v (%d processes", res.JobID, res.Duration.Round(time.Millisecond), len(res.Results))
	if res.Failures() > 0 {
		fmt.Fprintf(w, ", %d FAILED", res.Failures())
	}
	fmt.Fprintln(w, ")")

	hosts := res.Assignment.HostsBySite()
	procs := res.Assignment.ProcsBySite()
	var sites []string
	for s := range hosts {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, s := range sites {
		fmt.Fprintf(w, "  site %-10s %3d hosts %4d processes\n", s, hosts[s], procs[s])
	}
	for _, sr := range res.Results {
		status := "ok"
		if !sr.OK {
			status = "FAIL: " + sr.Err
		}
		out := string(sr.Output)
		if len(out) > 64 {
			out = out[:61] + "..."
		}
		fmt.Fprintf(w, "  rank %3d.%d [%s] %s\n", sr.Rank, sr.Replica, status, out)
	}
}
