package mpd

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/nettest"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// callTwins runs one script on two testbeds — every daemon's RPCs on
// simnet's callback path (transport.Call as delivery events), and on
// the PullOnly twin (Call as RequestReply on a spawned actor, the only
// client path there was before Call) — and fails unless both produce
// the same fingerprint: whatever the script returns, then every
// daemon's Stats, the frontal's ranked cache with its latencies, and
// every FIN either world sent, to the nanosecond. It returns the
// callback world's script output and stats for the caller's own
// non-vacuity checks.
func callTwins(t *testing.T, nNear, nFar, cores int, tune func(*Shared), script func(tb *testbed) string) (out string, front Stats) {
	t.Helper()
	run := func(pull bool) (fp []string, closes []string, front Stats, spawned int) {
		tb := newTestbedWith(t, nNear, nFar, cores, func(s *vtime.Scheduler, _ string, n transport.Network) transport.Network {
			n = nettest.LogCloses(n, s.Elapsed, &closes)
			if pull {
				n = nettest.PullOnly(n)
			}
			return n
		}, tune)
		tb.boot(t)
		fp = append(fp, script(tb))
		for _, m := range append([]*MPD{tb.front}, tb.peers...) {
			fp = append(fp, fmt.Sprintf("%s %+v", m.cfg.Self.ID, m.Stats()))
		}
		for _, rp := range tb.front.cache.Ranked() {
			fp = append(fp, fmt.Sprintf("rank %s %v", rp.Info.ID, rp.Latency))
		}
		fp = append(fp, fmt.Sprintf("clock %v", tb.s.Elapsed()))
		return fp, closes, tb.front.Stats(), tb.s.Spawned()
	}
	fp, closes, front, spawned := run(false)
	pullFP, pullCloses, _, pullSpawned := run(true)
	if !slices.Equal(fp, pullFP) {
		for i := range fp {
			if i >= len(pullFP) || fp[i] != pullFP[i] {
				t.Fatalf("fingerprints diverge at line %d\ncallback: %s\npull:     %s", i, fp[i], pullFP[min(i, len(pullFP)-1)])
			}
		}
		t.Fatalf("fingerprints diverge: %d lines against %d", len(fp), len(pullFP))
	}
	if len(closes) == 0 || !slices.Equal(closes, pullCloses) {
		t.Fatalf("close logs diverge (%d FINs against %d)", len(closes), len(pullCloses))
	}
	if spawned >= pullSpawned {
		t.Fatalf("the callback world spawned %d actors, its PullOnly twin %d: Call did not take the callback path", spawned, pullSpawned)
	}
	t.Logf("%d FINs, %d actors by callback against %d by pull", len(closes), spawned, pullSpawned)
	return fp[0], front
}

// TestPingRoundCallMatchesBlocking: boot and periodic ping rounds of
// seven daemons, two of them dead from the second round on, rank the
// survivors identically whichever way the pings travel.
func TestPingRoundCallMatchesBlocking(t *testing.T) {
	_, front := callTwins(t, 3, 3, 1, func(*Shared) {}, func(tb *testbed) string {
		tb.killHost("near01")
		tb.killHost("far02")
		tb.s.RunFor(45 * time.Second) // four more rounds, the dead ones timing out
		return ""
	})
	if front.PingsSent < 6*4 {
		t.Fatalf("the frontal sent %d pings, want several rounds of six", front.PingsSent)
	}
}

// TestSubmitCallMatchesBlocking: two submissions under 30 % cross-site
// loss with RPCRetries 2 — brokering and surplus release, Prepare and
// Start with retries, the failure detector's probes around a mid-run
// crash, JobDone retransmissions, then a launch that fails on a host
// killed after booking and is unwound by cancelLaunch — end in the same
// JobResults.
func TestSubmitCallMatchesBlocking(t *testing.T) {
	tune := func(sh *Shared) {
		sh.RPCRetries = 2
		sh.RPCBackoff = 200 * time.Millisecond
		sh.PrepareTimeout = 2 * time.Second
		sh.StartTimeout = 2 * time.Second
	}
	out, front := callTwins(t, 4, 4, 1, tune, func(tb *testbed) string {
		tb.net.SetLinkFault(0.3, 1)
		describe := func(res *JobResult, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return fmt.Sprintf("%s %v %+v %+v %+v", res.JobID, res.Duration, res.Reserve, res.Failover, res.Results)
		}
		killUsed := func(after time.Duration) func(*core.Assignment) {
			return func(a *core.Assignment) {
				for i, u := range a.U {
					if u > 0 && a.Hosts[i].ID != "frontal" {
						victim := a.Hosts[i].ID
						tb.s.Go("killer", func() {
							tb.s.Sleep(after)
							tb.killHost(victim)
						})
						return
					}
				}
			}
		}
		first := describe(tb.submit(t, JobSpec{
			Program: "spin", Args: []string{"20"}, N: 2, R: 2, Strategy: core.Spread,
			Timeout: 2 * time.Minute, FailureDetect: 5 * time.Second,
			OnAllocated: killUsed(8 * time.Second), // mid-run
		}))
		second := describe(tb.submit(t, JobSpec{
			Program: "hostname", N: 2, R: 2, Strategy: core.Concentrate,
			Timeout:     time.Minute,
			OnAllocated: killUsed(0), // before Prepare reaches it
		}))
		tb.s.RunFor(30 * time.Second) // let the cancels and retransmissions drain
		return first + "\n" + second
	})
	if front.RPCRetries == 0 {
		t.Fatal("no RPC was retried: the loss rule did not bite")
	}
	first, second, _ := strings.Cut(out, "\n")
	t.Logf("front %+v\n%s\n%s", front, first, second)
	if strings.HasPrefix(first, "error:") || !strings.Contains(first, "HostsLost:1") {
		t.Fatalf("first job did not run through a detected crash: %s", first)
	}
	if !strings.Contains(second, ErrLaunchFailed.Error()) {
		t.Fatalf("second job did not fail at launch: %s", second)
	}
}

// TestPreemptionKillCallMatchesBlocking: a preemptable job killed
// mid-run — KillJob fanned out to every used host — fails with
// ErrPreempted at the same instant on both paths.
func TestPreemptionKillCallMatchesBlocking(t *testing.T) {
	out, _ := callTwins(t, 4, 0, 1, func(*Shared) {}, func(tb *testbed) string {
		res, err := tb.submit(t, JobSpec{
			Program: "spin", Args: []string{"60"}, N: 3, R: 1, Strategy: core.Spread,
			Timeout: 2 * time.Minute, Preemptable: true,
			OnPreempt: func(p *Preemption) {
				tb.s.Go("evictor", func() {
					tb.s.Sleep(10 * time.Second)
					p.Kill()
				})
			},
		})
		tb.s.RunFor(5 * time.Second)
		if !errors.Is(err, ErrPreempted) {
			return fmt.Sprintf("not preempted: %+v, %v", res, err)
		}
		return fmt.Sprintf("%v at %v", err, tb.s.Elapsed())
	})
	if !strings.HasPrefix(out, ErrPreempted.Error()) {
		t.Fatal(out)
	}
}
