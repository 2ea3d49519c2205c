package exp

import (
	"fmt"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/sched"
)

// The concurrent-jobs experiment family goes past the paper's §5: there,
// every job ran alone on an otherwise idle platform. Here K identical
// jobs are submitted simultaneously through the multi-job scheduler and
// contend for the same host slots (every owner runs with J = 1), which
// is the regime a production co-allocation service actually operates in.

// ConcurrentPoint records strategy behaviour under K simultaneous jobs.
type ConcurrentPoint struct {
	K        int
	N, R     int
	Strategy core.Strategy

	// Completed and Failed partition the K jobs by outcome.
	Completed, Failed int
	// Attempts and SchedConflicts are scheduler-level counters: Submit
	// calls (plus admission backoffs) and the attempts lost to
	// contention.
	Attempts, SchedConflicts int
	// ReserveOK and ReserveNOK sum the accepted/rejected reservation
	// requests over every host's RS daemon.
	ReserveOK, ReserveNOK int
	// ConflictRate is ReserveNOK / (ReserveOK + ReserveNOK): the
	// fraction of reservation traffic lost to slot contention.
	ConflictRate float64
	// MeanSites and MeanHosts average the per-job allocation footprint
	// (sites and hosts with at least one process) over completed jobs.
	MeanSites, MeanHosts float64
	// MeanJobSeconds averages each completed job's enqueue-to-finish
	// virtual time — queueing, backoff and execution included.
	MeanJobSeconds float64
	// MakespanSeconds is the virtual time from the first enqueue to the
	// last completion.
	MakespanSeconds float64
}

// ConcurrentConfig tunes the experiment.
type ConcurrentConfig struct {
	// N and R shape each of the K identical jobs (default 32 / 1).
	N, R int
}

// concRetries is how often the scheduler re-runs a job that lost a
// reservation race.
const concRetries = 8

// sweepBackoff is the base pause before the scheduler re-runs a job, in
// every sweep family.
const sweepBackoff = 5 * time.Second

func (c *ConcurrentConfig) fillDefaults() {
	if c.N <= 0 {
		c.N = 32
	}
	if c.R <= 0 {
		c.R = 1
	}
}

// HostSlots returns the world's compute hosts as ledger slots: every
// peer with its core count as capacity (the worlds set P to the core
// count and J to 1, matching §5).
func (w *World) HostSlots() []core.HostSlot {
	var hosts []core.HostSlot
	for _, h := range w.Grid.Hosts {
		hosts = append(hosts, core.HostSlot{ID: h.ID, Site: h.Site, P: h.Cores, Cores: h.Cores})
	}
	return hosts
}

// runJobsBudget is RunJobs' virtual-second pump budget for k jobs: one
// hour plus a minute per job. The nemesis sweep sizes its injection
// horizon from the same formula so failures keep arriving for as long
// as jobs can still be running.
func runJobsBudget(k int) int { return 3600 + 60*k }

// RunJobs pushes k copies of spec through a fresh multi-job scheduler
// on a booted world, pumping the virtual clock until every job
// completed (budget: one virtual hour plus a minute per job). It
// returns the completed jobs and the scheduler counters; p2pmpirun's
// -jobs mode and the concurrent experiments share this path.
func RunJobs(w *World, spec mpd.JobSpec, k int, cfg sched.Config) ([]*sched.Job, sched.Stats, error) {
	if k < 1 {
		return nil, sched.Stats{}, fmt.Errorf("exp: k = %d", k)
	}
	if cfg.Workers <= 0 {
		// All jobs admitted at once: the only throttling is slot
		// contention itself.
		cfg.Workers = k
	}
	sc := sched.New(w.S, w.Frontal, w.HostSlots(), cfg)
	budget := runJobsBudget(k)
	jobs, err := submitPumped(w, budget, "exp.concurrent", func() ([]*sched.Job, error) {
		sc.Start()
		for i := 0; i < k; i++ {
			sc.Enqueue(spec)
		}
		jobs, err := sc.WaitTimeout(k, time.Duration(budget)*time.Second)
		if err != nil {
			return nil, fmt.Errorf("exp: concurrent jobs stalled: %w", err)
		}
		sc.Close()
		return jobs, nil
	})
	return jobs, sc.Stats(), err
}

// ConcurrentJobs boots a fresh world and runs K identical hostname jobs
// through the multi-job scheduler, all admitted at once.
func ConcurrentJobs(opts Options, strategy core.Strategy, k int, cfg ConcurrentConfig) (ConcurrentPoint, error) {
	cfg.fillDefaults()
	w := NewWorld(opts)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return ConcurrentPoint{}, err
	}
	spec := mpd.JobSpec{
		Program:  "hostname",
		N:        cfg.N,
		R:        cfg.R,
		Strategy: strategy,
		Timeout:  10 * time.Minute,
	}
	jobs, st, err := RunJobs(w, spec, k, sched.Config{
		Retries: concRetries,
		Backoff: sweepBackoff,
		Seed:    opts.Seed,
	})
	if err != nil {
		return ConcurrentPoint{}, err
	}

	// Makespan: first enqueue to last completion. All enqueues happen at
	// the same virtual instant (Enqueue never blocks).
	var first, last time.Time
	for _, j := range jobs {
		if first.IsZero() || j.Enqueued.Before(first) {
			first = j.Enqueued
		}
		if j.Finished.After(last) {
			last = j.Finished
		}
	}
	pt := ConcurrentPoint{K: k, N: cfg.N, R: cfg.R, Strategy: strategy,
		MakespanSeconds: last.Sub(first).Seconds()}
	pt.Attempts, pt.SchedConflicts = st.Attempts, st.Conflicts
	var sumSites, sumHosts, sumSecs float64
	for _, j := range jobs {
		if j.Err != nil {
			pt.Failed++
			continue
		}
		pt.Completed++
		sumSites += float64(len(j.Result.Assignment.HostsBySite()))
		sumHosts += float64(j.Result.Assignment.UsedHosts())
		sumSecs += j.Latency().Seconds()
	}
	if pt.Completed > 0 {
		pt.MeanSites = sumSites / float64(pt.Completed)
		pt.MeanHosts = sumHosts / float64(pt.Completed)
		pt.MeanJobSeconds = sumSecs / float64(pt.Completed)
	}
	pt.ReserveOK, pt.ReserveNOK = w.ReserveStats()
	if total := pt.ReserveOK + pt.ReserveNOK; total > 0 {
		pt.ConflictRate = float64(pt.ReserveNOK) / float64(total)
	}
	return pt, nil
}

// ConcurrentSweep measures one strategy across the K axis. Every point
// owns an independent world, so points run in parallel across a bounded
// pool with byte-identical results to a sequential (workers = 1) run.
func ConcurrentSweep(opts Options, strategy core.Strategy, ks []int, cfg ConcurrentConfig, workers int) ([]ConcurrentPoint, error) {
	if ks == nil {
		ks = DefaultConcurrentKs()
	}
	return sweep(ks, workers, func(k int) (ConcurrentPoint, error) {
		return ConcurrentJobs(opts, strategy, k, cfg)
	})
}

// DefaultConcurrentKs returns the K axis of the concurrent-jobs sweep.
func DefaultConcurrentKs() []int { return []int{1, 2, 4, 8, 16} }
