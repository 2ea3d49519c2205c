package mpd

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/nettest"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// callPinned runs one script on a testbed whose daemons' RPCs are
// transport.Calls and fails unless it leaves the pinned fingerprint:
// whatever the script returns, then every daemon's Stats, the frontal's
// ranked cache with its latencies, and every FIN the world sent, to the
// nanosecond. Each pin was recorded when the same world with every Call
// a RequestReply on a spawned actor still produced the same timeline.
// It returns the script output and the frontal's stats for the
// caller's own non-vacuity checks.
func callPinned(t *testing.T, nNear, nFar, cores int, tune func(*Shared), pin string, script func(tb *testbed) string) (out string, front Stats) {
	t.Helper()
	var fp, closes []string
	tb := newTestbedWith(t, nNear, nFar, cores, func(s *vtime.Scheduler, _ string, n transport.Network) transport.Network {
		return nettest.LogCloses(n, s.Elapsed, &closes)
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
	matchesPin(t, fp, closes, pin)
	return fp[0], tb.front.Stats()
}

// matchesPin fails t unless the close log is non-empty and the
// fingerprint and close log together digest to pin.
func matchesPin(t *testing.T, fp, closes []string, pin string) {
	t.Helper()
	if got := nettest.Digest(fp, closes); len(closes) == 0 || got != pin {
		t.Fatalf("%d FINs; timeline digest %s, pinned %s\n%s", len(closes), got, pin, strings.Join(fp, "\n"))
	}
}

// TestPingRoundCallMatchesBlocking: boot and periodic ping rounds of
// seven daemons, two of them dead from the second round on, rank the
// survivors as the blocking pings did.
func TestPingRoundCallMatchesBlocking(t *testing.T) {
	_, front := callPinned(t, 3, 3, 1, func(*Shared) {}, "d47ea0cc4a27aee50d6d6f3735de91409b36cb95301297f5c98566bf4e4230d3", func(tb *testbed) string {
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
// killed after booking and is unwound by cancelLaunch — end in the
// JobResults the blocking RPCs reached.
func TestSubmitCallMatchesBlocking(t *testing.T) {
	tune := func(sh *Shared) {
		sh.RPCRetries = 2
		sh.RPCBackoff = 200 * time.Millisecond
		sh.PrepareTimeout = 2 * time.Second
		sh.StartTimeout = 2 * time.Second
	}
	out, front := callPinned(t, 4, 4, 1, tune, "44043b4cbd53207ef692d2daa44f615cce0c6299ef5fbcab285dd96d3d860a45", func(tb *testbed) string {
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
// ErrPreempted at the instant the blocking RPCs reached.
func TestPreemptionKillCallMatchesBlocking(t *testing.T) {
	out, _ := callPinned(t, 4, 0, 1, func(*Shared) {}, "0cdc2c390e96de708953b51387eb303bb3e3b6b19ede64f293d93d1798167957", func(tb *testbed) string {
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

// TestMembershipScriptsCallMatchesBlocking: the supernode scripts are
// Call chains, each step issued from the previous one's continuation.
// On a K=2 federation, peers that know only shard 1 follow ShardRedirect
// answers to shard 0 (a second Call from the first one's continuation)
// and, each keep-alive, find themselves unknown at shard 1 and register
// again; then shard 0's host dies, and the peers homed there fail over:
// the keep-alive falls through to shard 1, is told the peer is unknown
// and chains into a registration that times out at home (with a retry)
// and fosters at shard 1, and refreshes fall through the same way. The
// stats, tables, caches and FINs are pinned to those of the same world
// with every Call a RequestReply on a spawned actor and every server a
// Recv loop, and no actor is spawned.
func TestMembershipScriptsCallMatchesBlocking(t *testing.T) {
	federation := []string{"fsn0:8800", "fsn1:8800"}
	ids := []string{"frontal", "pa.east", "pb.east", "pc.west", "pd.west", "pe.east", "pf.west", "pg.west"}
	var fp, closes []string
	var total Stats
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	hostSite := map[string]string{"fsn0": "east", "fsn1": "west"}
	for _, id := range ids {
		hostSite[id] = "east"
		if strings.HasSuffix(id, ".west") {
			hostSite[id] = "west"
		}
	}
	net := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: 2 * time.Millisecond},
		simnet.Config{Seed: 19, JitterFrac: 0.02, JitterFloor: 20 * time.Microsecond, NICBps: 1e9})
	wrap := func(host string) transport.Network {
		return nettest.LogCloses(net.Node(host), s.Elapsed, &closes)
	}
	sns := make([]*overlay.Supernode, len(federation))
	for i := range sns {
		sns[i] = overlay.NewSupernode(s, wrap(fmt.Sprintf("fsn%d", i)), overlay.SupernodeConfig{
			Addr: federation[i], Shard: i, Federation: federation,
			GossipInterval: 200 * time.Millisecond, TTL: time.Minute, SweepInterval: 10 * time.Second,
		})
	}
	var daemons []*MPD
	for i, id := range ids {
		sh := &Shared{
			Programs:     programs(),
			PingInterval: 20 * time.Second, AliveInterval: 10 * time.Second, RefreshInterval: 15 * time.Second,
			ReserveTimeout: time.Second, RPCRetries: 1, RPCBackoff: 200 * time.Millisecond,
		}
		if i%2 == 0 {
			sh.Federation = federation
		} else {
			sh.SupernodeAddr = federation[1] // redirected when homed at shard 0
		}
		daemons = append(daemons, New(s, wrap(id), Config{
			Self: proto.PeerInfo{ID: id, Site: hostSite[id], MPDAddr: id + ":9000", RSAddr: id + ":9001"},
			P:    1, Seed: int64(i + 1), Shared: sh,
		}))
	}
	for _, sn := range sns {
		if err := sn.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(phase string) {
		for _, d := range daemons {
			st := d.Stats()
			fp = append(fp, fmt.Sprintf("%s %s %+v cache=%d", phase, d.cfg.Self.ID, st, d.Cache().Size()))
		}
		for i, sn := range sns {
			fp = append(fp, fmt.Sprintf("%s fsn%d %v %+v", phase, i, sn.OwnedIDs(), sn.Stats()))
		}
		fp = append(fp, fmt.Sprintf("%s clock %v", phase, s.Elapsed()))
	}
	s.RunFor(25 * time.Second)
	snapshot("booted")
	net.FailHost("fsn0")
	s.RunFor(45 * time.Second)
	snapshot("fsn0 down")
	for _, d := range daemons {
		st := d.Stats()
		total.SNRedirects += st.SNRedirects
		total.SNFailovers += st.SNFailovers
		total.RPCRetries += st.RPCRetries
	}
	if got := s.Spawned(); got != 0 {
		t.Fatalf("the world spawned %d actors, want none", got)
	}
	if total.SNRedirects == 0 || total.SNFailovers == 0 || total.RPCRetries == 0 {
		t.Fatalf("a script path never ran: %+v", total)
	}
	matchesPin(t, fp, closes, "12425da2dd0e5dad355bdf28f38eff44523045ac56858acf1ac05b5d20cf87a8")
	t.Logf("redirects %d, failovers %d, retries %d", total.SNRedirects, total.SNFailovers, total.RPCRetries)
}
