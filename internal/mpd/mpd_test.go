package mpd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// testbed is a small two-site world: the submitter frontend plus compute
// peers split between a near and a far site.
type testbed struct {
	s     *vtime.Scheduler
	net   *simnet.Net
	sn    *overlay.Supernode
	front *MPD
	peers []*MPD
}

// echoRank is a tiny MPI program: allreduce the ranks, print the result.
func echoRank(env *Env) error {
	c, err := env.Comm()
	if err != nil {
		return err
	}
	sum, err := c.AllreduceI64([]int64{int64(env.Rank)}, mpi.OpSum)
	if err != nil {
		return err
	}
	fmt.Fprintf(&env.Out, "rank=%d sum=%d", env.Rank, sum[0])
	return nil
}

func programs() map[string]Program {
	return map[string]Program{
		"hostname": Hostname,
		"echorank": echoRank,
		"spin":     Spin,
		"fail":     func(env *Env) error { return fmt.Errorf("boom") },
	}
}

// peerByID finds a compute peer daemon by host ID.
func (tb *testbed) peerByID(id string) *MPD {
	for _, p := range tb.peers {
		if p.cfg.Self.ID == id {
			return p
		}
	}
	return nil
}

// killHost emulates the churn driver's Down hook: the network drops the
// host and its daemon crashes (jobs die unreported, RS resets).
func (tb *testbed) killHost(id string) {
	tb.net.FailHost(id)
	if p := tb.peerByID(id); p != nil {
		p.Crash()
	}
}

// newTestbed builds nNear peers on site "near" (0.1ms one way) and nFar
// peers on site "far" (5ms one way).
func newTestbed(t *testing.T, nNear, nFar int, coresPerHost int) *testbed {
	t.Helper()
	return newTestbedOn(t, nNear, nFar, coresPerHost, func(_ *vtime.Scheduler, n transport.Network) transport.Network { return n })
}

// newTestbedOn is newTestbed with every compute peer's network view
// passed through wrap (nettest doubles).
func newTestbedOn(t *testing.T, nNear, nFar int, coresPerHost int, wrap func(*vtime.Scheduler, transport.Network) transport.Network) *testbed {
	t.Helper()
	return newTestbedWith(t, nNear, nFar, coresPerHost, func(s *vtime.Scheduler, host string, n transport.Network) transport.Network {
		if host == "frontal" {
			return n
		}
		return wrap(s, n)
	}, func(*Shared) {})
}

// newTestbedWith wraps every daemon's network view, the frontal's
// included, and lets tune adjust the deployment-wide configuration.
func newTestbedWith(t *testing.T, nNear, nFar int, coresPerHost int,
	wrap func(s *vtime.Scheduler, host string, n transport.Network) transport.Network, tune func(*Shared)) *testbed {
	t.Helper()
	s := vtime.New()
	t.Cleanup(s.Shutdown)

	hostSite := map[string]string{"frontal": "near"}
	var names []string
	for i := 0; i < nNear; i++ {
		h := fmt.Sprintf("near%02d", i)
		hostSite[h] = "near"
		names = append(names, h)
	}
	for i := 0; i < nFar; i++ {
		h := fmt.Sprintf("far%02d", i)
		hostSite[h] = "far"
		names = append(names, h)
	}
	topo := &simnet.StaticTopology{
		HostSite: hostSite,
		Lat: map[[2]string]time.Duration{
			{"near", "near"}: 100 * time.Microsecond,
			{"far", "far"}:   100 * time.Microsecond,
			{"far", "near"}:  5 * time.Millisecond,
		},
	}
	net := simnet.New(s, topo, simnet.Config{Seed: 31, JitterFrac: 0.02,
		JitterFloor: 20 * time.Microsecond, NICBps: 1e9})

	tb := &testbed{s: s, net: net}
	tb.sn = overlay.NewSupernode(s, net.Node("frontal"), overlay.SupernodeConfig{
		Addr: "frontal:8800", TTL: 5 * time.Minute,
	})

	mkCfg := func(id string, p int) Config {
		shared := &Shared{
			SupernodeAddr: "frontal:8800",
			Programs:      programs(),
			PingInterval:  10 * time.Second,
		}
		tune(shared)
		return Config{
			Self: proto.PeerInfo{
				ID: id, Site: hostSite[id],
				MPDAddr: id + ":9000", RSAddr: id + ":9001",
			},
			P:       p,
			J:       1,
			Profile: HostProfile{Cores: coresPerHost, CoreGFLOPS: 2, MemBWGBs: 5},
			Seed:    int64(len(id) * 7),
			Shared:  shared,
		}
	}
	tb.front = New(s, wrap(s, "frontal", net.Node("frontal")), mkCfg("frontal", 0))
	for _, h := range names {
		tb.peers = append(tb.peers, New(s, wrap(s, h, net.Node(h)), mkCfg(h, coresPerHost)))
	}
	return tb
}

// boot starts everything and lets two ping rounds pass.
func (tb *testbed) boot(t *testing.T) {
	t.Helper()
	tb.s.Go("boot", func() {
		if err := tb.sn.Start(); err != nil {
			t.Errorf("supernode: %v", err)
			return
		}
		if err := tb.front.Start(); err != nil {
			t.Errorf("frontal: %v", err)
			return
		}
		for _, p := range tb.peers {
			if err := p.Start(); err != nil {
				t.Errorf("peer: %v", err)
				return
			}
		}
	})
	tb.s.RunFor(time.Second)
	// The frontal booted before most peers registered: refresh its cache
	// and measure, as the paper's MPD does before booking.
	tb.s.Go("warm", func() {
		if peers, err := overlay.FetchFrom(tb.front.net, "frontal:8800", time.Second); err == nil {
			tb.front.cache.Update(peers)
		}
		tb.front.pingRound(func() {})
	})
	tb.s.RunFor(30 * time.Second)
}

func (tb *testbed) close() {
	tb.sn.Close()
	tb.front.Close()
	for _, p := range tb.peers {
		p.Close()
	}
}

// submit runs a job from the frontal and returns the result.
func (tb *testbed) submit(t *testing.T, spec JobSpec) (*JobResult, error) {
	t.Helper()
	var res *JobResult
	var err error
	done := make(chan struct{})
	tb.s.Go("submit", func() {
		res, err = tb.front.Submit(spec)
		close(done)
	})
	for i := 0; i < 600; i++ {
		tb.s.RunFor(time.Second)
		select {
		case <-done:
			return res, err
		default:
		}
	}
	t.Fatal("submit did not finish within simulated budget")
	return nil, nil
}

func TestHostnameJobConcentrate(t *testing.T) {
	tb := newTestbed(t, 4, 4, 2)
	tb.boot(t)
	defer tb.close()

	res, err := tb.submit(t, JobSpec{
		Program: "hostname", N: 6, R: 1, Strategy: core.Concentrate,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 0 {
		t.Fatalf("failures: %+v", res.Results)
	}
	if len(res.Results) != 6 {
		t.Fatalf("results = %d", len(res.Results))
	}
	// Concentrate with P=2: six processes on the three closest (near)
	// hosts, two per host.
	counts := map[string]int{}
	for _, r := range res.Results {
		counts[string(r.Output)]++
	}
	if len(counts) != 3 {
		t.Fatalf("used hosts = %v, want 3 near hosts", counts)
	}
	for h, c := range counts {
		if !strings.HasPrefix(h, "near") {
			t.Fatalf("concentrate picked far host %s (counts %v)", h, counts)
		}
		if c != 2 {
			t.Fatalf("host %s ran %d processes, want 2", h, c)
		}
	}
}

func TestHostnameJobSpread(t *testing.T) {
	tb := newTestbed(t, 4, 4, 2)
	tb.boot(t)
	defer tb.close()

	res, err := tb.submit(t, JobSpec{
		Program: "hostname", N: 6, R: 1, Strategy: core.Spread,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Spread: one process per host over the six closest hosts; with only
	// four near hosts, two far hosts are drafted.
	counts := map[string]int{}
	for _, r := range res.Results {
		counts[string(r.Output)]++
	}
	if len(counts) != 6 {
		t.Fatalf("used %d hosts, want 6: %v", len(counts), counts)
	}
	near := 0
	for h, c := range counts {
		if c != 1 {
			t.Fatalf("host %s ran %d, want 1", h, c)
		}
		if strings.HasPrefix(h, "near") {
			near++
		}
	}
	if near != 4 {
		t.Fatalf("spread used %d near hosts, want all 4 first", near)
	}
}

func TestMPIProgramAcrossHosts(t *testing.T) {
	tb := newTestbed(t, 4, 2, 2)
	tb.boot(t)
	defer tb.close()

	res, err := tb.submit(t, JobSpec{
		Program: "echorank", N: 5, R: 1, Strategy: core.Spread,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 0 {
		t.Fatalf("failures: %+v", res.Results)
	}
	for _, r := range res.Results {
		want := fmt.Sprintf("rank=%d sum=10", r.Rank)
		if string(r.Output) != want {
			t.Fatalf("rank %d output %q, want %q", r.Rank, r.Output, want)
		}
	}
}

func TestReplicatedJob(t *testing.T) {
	tb := newTestbed(t, 4, 2, 2)
	tb.boot(t)
	defer tb.close()

	res, err := tb.submit(t, JobSpec{
		Program: "hostname", N: 3, R: 2, Strategy: core.Spread,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(res.Results) != 6 || res.Failures() != 0 {
		t.Fatalf("results: %+v", res.Results)
	}
	// No two replicas of one rank on the same host.
	byRank := map[int][]string{}
	for _, r := range res.Results {
		byRank[r.Rank] = append(byRank[r.Rank], string(r.Output))
	}
	for rank, hosts := range byRank {
		if len(hosts) != 2 || hosts[0] == hosts[1] {
			t.Fatalf("rank %d replicas on %v", rank, hosts)
		}
	}
}

func TestInfeasibleRequestFails(t *testing.T) {
	tb := newTestbed(t, 2, 2, 2)
	tb.boot(t)
	defer tb.close()

	_, err := tb.submit(t, JobSpec{
		Program: "hostname", N: 50, R: 1, Strategy: core.Spread,
	})
	if err == nil {
		t.Fatal("oversized request succeeded")
	}
	// All reservations must have been cancelled.
	tb.s.RunFor(5 * time.Second)
	for _, p := range tb.peers {
		if h := p.RS().Held(); h != 0 {
			t.Fatalf("peer still holds %d reservations after failure", h)
		}
	}
}

func TestFailingProgramReported(t *testing.T) {
	tb := newTestbed(t, 2, 0, 2)
	tb.boot(t)
	defer tb.close()

	res, err := tb.submit(t, JobSpec{
		Program: "fail", N: 2, R: 1, Strategy: core.Spread,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 2 {
		t.Fatalf("failures = %d, want 2 (%+v)", res.Failures(), res.Results)
	}
	for _, r := range res.Results {
		if r.OK || !strings.Contains(r.Err, "boom") {
			t.Fatalf("result %+v", r)
		}
	}
}

func TestUnknownProgramRejectedLocally(t *testing.T) {
	tb := newTestbed(t, 2, 0, 2)
	tb.boot(t)
	defer tb.close()
	_, err := tb.submit(t, JobSpec{Program: "nosuch", N: 1, R: 1})
	if err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestDeadPeerMarkedAndJobStillRuns(t *testing.T) {
	tb := newTestbed(t, 4, 2, 2)
	tb.boot(t)
	defer tb.close()

	// Kill one near peer after warmup; its RS goes silent.
	dead := tb.peers[1]
	tb.net.FailHost(dead.cfg.Self.ID)

	res, err := tb.submit(t, JobSpec{
		Program: "hostname", N: 6, R: 1, Strategy: core.Spread,
		Timeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("submit despite dead peer: %v", err)
	}
	if res.Failures() != 0 {
		t.Fatalf("failures: %+v", res.Results)
	}
	for _, r := range res.Results {
		if string(r.Output) == dead.cfg.Self.ID {
			t.Fatalf("dead host %s ran a process", dead.cfg.Self.ID)
		}
	}
	if _, ok := tb.front.Cache().Peer(dead.cfg.Self.ID); ok {
		t.Fatal("dead peer not marked dead in the cache")
	}
}

func TestJLimitSecondJobRefused(t *testing.T) {
	tb := newTestbed(t, 2, 0, 2)
	tb.boot(t)
	defer tb.close()

	// Occupy both peers with held reservations via a raw broker round,
	// then a real submission must fail (J=1 everywhere).
	tb.s.Go("occupy", func() {
		var cands []proto.PeerInfo
		for _, p := range tb.peers {
			cands = append(cands, p.cfg.Self)
		}
		// Hold keys directly on the RS of each peer.
		for _, p := range tb.peers {
			p.RS().Consume("occupied") // unknown key: no-op
		}
	})
	tb.s.RunFor(time.Second)
	for _, p := range tb.peers {
		// Simulate an already-running app through the public surface.
		p.RS().Release("none")
	}

	// Simpler: occupy via an actual long job, then submit another.
	long := func(env *Env) error {
		env.RT.Sleep(2 * time.Minute)
		return nil
	}
	tb.front.cfg.Programs["long"] = long
	for _, p := range tb.peers {
		p.cfg.Programs["long"] = long
	}
	type out struct {
		res *JobResult
		err error
	}
	firstDone := make(chan out, 1)
	tb.s.Go("first", func() {
		r, e := tb.front.Submit(JobSpec{Program: "long", N: 2, R: 1,
			Strategy: core.Spread, Timeout: 5 * time.Minute})
		firstDone <- out{r, e}
	})
	tb.s.RunFor(20 * time.Second) // first job is now running on both peers

	var secondErr error
	second := make(chan struct{})
	tb.s.Go("second", func() {
		_, secondErr = tb.front.Submit(JobSpec{Program: "hostname", N: 2, R: 1,
			Strategy: core.Spread, Timeout: time.Minute})
		close(second)
	})
	for i := 0; i < 400; i++ {
		tb.s.RunFor(time.Second)
		select {
		case <-second:
			i = 400
		default:
		}
	}
	if secondErr == nil {
		t.Fatal("second job accepted while J=1 apps were running")
	}
	// Let the first job finish cleanly.
	for i := 0; i < 300; i++ {
		tb.s.RunFor(time.Second)
		select {
		case o := <-firstDone:
			if o.err != nil {
				t.Fatalf("first job: %v", o.err)
			}
			return
		default:
		}
	}
	t.Fatal("first job never finished")
}

func TestComputeModelContention(t *testing.T) {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	var solo, shared time.Duration
	s.Go("solo", func() {
		env := &Env{RT: s, CoLocated: 1,
			Profile: HostProfile{CoreGFLOPS: 2, MemBWGBs: 5}}
		t0 := s.Elapsed()
		env.Compute(1e9, 5e9) // memory bound: 1s at full bandwidth
		solo = s.Elapsed() - t0
	})
	s.Wait()
	s.Go("shared", func() {
		env := &Env{RT: s, CoLocated: 4,
			Profile: HostProfile{CoreGFLOPS: 2, MemBWGBs: 5}}
		t0 := s.Elapsed()
		env.Compute(1e9, 5e9)
		shared = s.Elapsed() - t0
	})
	s.Wait()
	if solo != time.Second {
		t.Fatalf("solo compute = %v, want 1s", solo)
	}
	if shared != 4*time.Second {
		t.Fatalf("4-way shared compute = %v, want 4s", shared)
	}
}

func TestComputeCPUBoundUnaffectedByNeighbours(t *testing.T) {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	var d time.Duration
	s.Go("cpu", func() {
		env := &Env{RT: s, CoLocated: 4,
			Profile: HostProfile{CoreGFLOPS: 2, MemBWGBs: 5}}
		t0 := s.Elapsed()
		env.Compute(4e9, 1e6) // cpu bound: 2s on a 2 GFLOPS core
		d = s.Elapsed() - t0
	})
	s.Wait()
	if d != 2*time.Second {
		t.Fatalf("cpu-bound compute = %v, want 2s", d)
	}
}
