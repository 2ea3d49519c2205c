package exp

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/sched"
)

// TestShardChurnBarrierRace exercises the sharded barrier path under
// maximum contention for the race detector: a federated world (4
// supernodes on dedicated hosts) split over 3 shard event loops, with
// host churn killing hosts — compute hosts and supernode hosts
// alike — at window barriers while jobs run. MTBF well below the run
// horizon makes nearly every host (and with it at least one supernode
// host) cycle down and up mid-run, so the test drives the cross-shard
// failover, FIN, and re-registration machinery while shard workers run
// concurrently. VTIME_CHECK arms the lookahead-safety assertion for
// the whole run.
//
// The run must (a) finish, (b) inject a substantial failure load, and
// (c) reproduce the single-shard timeline byte for byte — no event
// lost or double-fired at any barrier.
func TestShardChurnBarrierRace(t *testing.T) {
	t.Setenv("VTIME_CHECK", "1")

	spec, err := grid.ParseTopologySpec("synth:S=3,H=8")
	if err != nil {
		t.Fatal(err)
	}

	run := func(shards int) (sched.Stats, faults.Stats, []string) {
		o := DefaultOptions(99)
		o.Topology = spec
		o.Supernodes = 4
		o.Shards = shards
		w := NewWorld(o)
		defer w.Close()
		if err := w.Boot(); err != nil {
			t.Fatal(err)
		}
		budget := runJobsBudget(4)
		driver := w.StartChurn(faults.Config{
			Seed:    churnSeed(99, 60*time.Second, 2),
			MTBF:    60 * time.Second,
			MTTR:    30 * time.Second,
			Horizon: time.Duration(budget) * time.Second,
		})
		jspec := mpd.JobSpec{
			Program: "spin", Args: []string{"30"},
			N: 6, R: 2, Strategy: core.Spread,
			Timeout:        3 * time.Minute,
			FailureDetect:  5 * time.Second,
			ReserveRetries: 1,
		}
		jobs, stats, err := RunJobs(w, jspec, 4, sched.Config{
			Workers: 2, Retries: 4, Backoff: 5 * time.Second,
			Seed: 99, IsContention: ChurnRetryable,
		})
		injected := driver.Stop()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		lines := make([]string, 0, len(jobs))
		for _, j := range jobs {
			lines = append(lines, jobLine(j))
		}
		return stats, injected, lines
	}

	seqSched, seqInj, seqJobs := run(1)
	shSched, shInj, shJobs := run(3)

	if seqInj.Failures < 10 {
		t.Fatalf("churn load too light to mean anything: %d failures", seqInj.Failures)
	}
	if shInj != seqInj {
		t.Fatalf("injected churn diverged:\nseq: %+v\nsharded: %+v", seqInj, shInj)
	}
	if shSched != seqSched {
		t.Fatalf("scheduler stats diverged:\nseq: %+v\nsharded: %+v", seqSched, shSched)
	}
	for i := range seqJobs {
		if shJobs[i] != seqJobs[i] {
			t.Fatalf("job %d diverged:\nseq:     %s\nsharded: %s", i, seqJobs[i], shJobs[i])
		}
	}
}

// jobLine flattens the determinism-relevant outcome of one job.
func jobLine(j *sched.Job) string {
	fo, hl := -1, -1
	if j.Result != nil {
		fo = j.Result.Failover.Failovers
		hl = j.Result.Failover.HostsLost
	}
	errs := "<nil>"
	if j.Err != nil {
		errs = j.Err.Error()
	}
	return fmt.Sprintf("%v|%v|%d|%d|%d|%d|%s",
		j.Latency(), j.Wasted, j.Attempts, j.Conflicts, fo, hl, errs)
}
