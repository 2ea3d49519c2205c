package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/sched"
	"p2pmpi/internal/workload"
)

// The five workloads. Names are fixed: later PRs cite them.
const (
	wlPaperFig4    = "paper_fig4"
	wlScaleFed     = "scale_boot_fed"
	wlScaleSharded = "scale_boot_fed_sharded"
	wlOpenSLO      = "open_slo"
	wlHostileFed   = "hostile_fed"
)

var workloadNames = []string{wlPaperFig4, wlScaleFed, wlScaleSharded, wlOpenSLO, wlHostileFed}

// sizes holds every knob that sets how much work one point does. The
// "full" set is the benchmark; "smoke" is the self-test and the warm-up
// pass (same code paths, seconds not minutes).
type sizes struct {
	Name string `json:"name"`
	// paper_fig4: process counts of the EP-B and IS-B sweeps.
	Fig4EPNs []int `json:"fig4_ep_ns"`
	Fig4ISNs []int `json:"fig4_is_ns"`
	// scale_boot_fed*: world size, job width, steady-state window.
	ScaleHosts    int `json:"scale_hosts"`
	ScaleN        int `json:"scale_n"`
	ScaleSteadyVM int `json:"scale_steady_vmin"`
	// open_slo: topology, arrival horizon in virtual minutes.
	OpenGrid       string `json:"open_grid"`
	OpenHorizonMin int    `json:"open_horizon_vmin"`
	// hostile_fed: topology and virtual horizon.
	HostileGrid string `json:"hostile_grid"`
	HostileVMin int    `json:"hostile_vmin"`
}

var sizeTable = map[string]sizes{
	"full": {
		Name:     "full",
		Fig4EPNs: []int{32, 64, 128, 256, 512}, Fig4ISNs: []int{32, 64, 128},
		ScaleHosts: 6400, ScaleN: 64, ScaleSteadyVM: 2,
		OpenGrid: "synth:S=4,H=32", OpenHorizonMin: 100,
		HostileGrid: "synth:S=8,H=250,sn=4", HostileVMin: 7,
	},
	"smoke": {
		Name:     "smoke",
		Fig4EPNs: []int{32}, Fig4ISNs: []int{32},
		ScaleHosts: 1024, ScaleN: 16, ScaleSteadyVM: 1,
		OpenGrid: "synth:S=4,H=8", OpenHorizonMin: 10,
		HostileGrid: "synth:S=4,H=16,sn=2", HostileVMin: 2,
	},
}

// point is what one run of one workload yields: host-time phases, the
// simulated output (digested for correctness), and the simulated work
// counts read from exported Stats() at the phase boundaries.
type point struct {
	SetupS, RunS, CloseS float64 // host wall seconds
	WallS                float64 // setup + run + close (twin set-up: the runner call)
	CPUS                 float64 // user+sys of this process over the point
	LiveHeapB            uint64  // HeapAlloc after a forced GC, world still open
	Hosts                int
	VSec                 float64 // virtual seconds simulated (exact)
	JobsAttempted        int     // simulated job submissions
	JobsFailed           int     // of which failed (by design under faults/preemption)
	SimOutput            string  // the family's CSV rendering
	Counts               map[string]float64
	// Phase holds the (a) pieces only a World-owning script can time.
	Phase map[string]float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap forces a collection and reads the live heap; timed as a
// harness span so it stays out of point_wall_s.
func liveHeap(r *recorder) uint64 {
	var ms runtime.MemStats
	r.do(harnessPrefix+"live_heap", func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
	})
	return ms.HeapAlloc
}

// heapSampler polls the runtime's live-heap gauge (bytes marked by the
// last completed GC cycle) every 10 ms. It gives a live-heap figure for a
// runner whose world the harness cannot reach; reading the gauge stops
// nothing and forces no collection.
type heapSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
				}
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the median sample.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	if len(h.samples) == 0 { // the runner returned inside the first tick
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	return uint64(median(h.samples))
}

func mustGrid(spec string) grid.TopologySpec {
	s, err := grid.ParseTopologySpec(spec)
	if err != nil {
		panic(err) // a typo in the size table
	}
	return s
}

// runPoint runs one point of the named workload under the recorder.
func runPoint(r *recorder, name string, sz sizes, seed int64) (*point, error) {
	var ms0, ms1 runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&ms0)
	}
	root := r.begin("point." + name)
	cpu0 := cpuSeconds() - r.harnessCPU
	var (
		p   *point
		err error
	)
	switch name {
	case wlPaperFig4:
		p, err = runPaperFig4(r, sz, seed)
	case wlScaleFed:
		p, err = runScaleBoot(r, sz, seed, 1)
	case wlScaleSharded:
		p, err = runScaleBoot(r, sz, seed, 2)
	case wlOpenSLO:
		p, err = runOpenSLO(r, sz, seed)
	case wlHostileFed:
		p, err = runHostileFed(r, sz, seed)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	cpu1 := cpuSeconds() - r.harnessCPU
	r.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p.CPUS = cpu1 - cpu0
	if r.traced {
		runtime.ReadMemStats(&ms1)
		p.Phase["exp.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	r.point++
	return p, nil
}

// worldCounts reads the (d) work counts of an open world from the
// exported Stats() of its layers.
func worldCounts(w *exp.World) map[string]float64 {
	c := map[string]float64{"vtime.vsec": w.S.Elapsed().Seconds()}
	if w.D != nil {
		c["vtime.windows"] = float64(w.D.Windows())
		c["vtime.skipped_windows"] = float64(w.D.SkippedWindows())
	}
	fed := w.FederationStats()
	c["overlay.memb_bytes"] = float64(fed.BytesIn + fed.BytesOut)
	c["overlay.gossip_exchanges"] = float64(fed.GossipExchanges)
	c["overlay.stale_ms_mean"] = float64(fed.MeanStaleness()) / float64(time.Millisecond)
	st := w.Frontal.Stats()
	for _, p := range w.Peers {
		ps := p.Stats()
		st.Registrations += ps.Registrations
		st.RegNanos += ps.RegNanos
		st.PingsSent += ps.PingsSent
		st.JobsHosted += ps.JobsHosted
		st.RPCRetries += ps.RPCRetries
		st.BreakerSkips += ps.BreakerSkips
	}
	c["mpd.registrations"] = float64(st.Registrations)
	if st.Registrations > 0 {
		c["mpd.reg_ms_mean"] = float64(st.RegNanos) / float64(st.Registrations) / 1e6
	}
	c["mpd.pings_sent"] = float64(st.PingsSent)
	c["mpd.jobs_hosted"] = float64(st.JobsHosted)
	c["mpd.rpc_retries"] = float64(st.RPCRetries)
	c["mpd.breaker_skips"] = float64(st.BreakerSkips)
	ok, nok := w.ReserveStats()
	c["reservation.ok"] = float64(ok)
	c["reservation.nok"] = float64(nok)
	return c
}

// bootWorld runs the shared set-up: NewWorld then Boot, each its own
// span under "setup". On error the world is closed.
func bootWorld(r *recorder, opts exp.Options, p *point) (*exp.World, error) {
	setup := r.begin("setup")
	var w *exp.World
	var ms0, ms1 runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&ms0)
	}
	construct := r.do("exp.NewWorld", func() { w = exp.NewWorld(opts) })
	if r.traced {
		r.sample = func() map[string]float64 { return worldCounts(w) }
	}
	var err error
	boot := r.do("exp.World.Boot", func() { err = w.Boot() })
	if r.traced {
		runtime.ReadMemStats(&ms1)
	}
	p.SetupS = r.end(setup).Seconds()
	if err != nil {
		r.sample = nil
		w.Close()
		return nil, err
	}
	p.Hosts = w.Grid.TotalHosts()
	hosts := float64(p.Hosts)
	p.Phase = map[string]float64{
		"exp.construct_s":      construct.Seconds(),
		"exp.boot_s":           boot.Seconds(),
		"exp.boot_us_per_host": boot.Seconds() * 1e6 / hosts,
	}
	if r.traced {
		p.Phase["exp.boot_allocs_per_host"] = float64(ms1.Mallocs-ms0.Mallocs) / hosts
		p.Phase["exp.boot_bytes_per_host"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / hosts
	}
	return w, nil
}

// finishWorld ends the run phase of a World-owning script: live heap
// with the world still open, the work counts, then Close.
func finishWorld(r *recorder, w *exp.World, p *point) {
	p.LiveHeapB = liveHeap(r)
	p.Phase["exp.live_heap_b_per_host"] = float64(p.LiveHeapB) / float64(p.Hosts)
	r.do(harnessPrefix+"counts", func() { p.Counts = worldCounts(w) })
	p.VSec = w.S.Elapsed().Seconds()
	r.sample = nil
	p.CloseS = r.do("exp.World.Close", w.Close).Seconds()
	p.Phase["exp.close_s"] = p.CloseS
	p.WallS = p.SetupS + p.RunS + p.CloseS
}

// runPaperFig4 is the paper's Figure 4 on the 350-host Grid'5000 of
// Table 1: EP-B and IS-B under spread and concentrate, one booted world.
// Each (program, strategy, n) is its own NASSweep call so the spans
// resolve single process counts; NASSweep is a plain loop over ns, so
// the output equals the multi-n call's.
func runPaperFig4(r *recorder, sz sizes, seed int64) (*point, error) {
	p := &point{}
	w, err := bootWorld(r, exp.DefaultOptions(seed), p)
	if err != nil {
		return nil, err
	}
	run := r.begin("run")
	var ep, is []exp.TimePoint
	sweep := func(program, tag string, ns []int, out *[]exp.TimePoint) error {
		for _, strategy := range []core.Strategy{core.Spread, core.Concentrate} {
			for _, n := range ns {
				var pts []exp.TimePoint
				var serr error
				r.do(fmt.Sprintf("exp.NASSweep.%s.%s.n%d", tag, strategy, n), func() {
					pts, serr = exp.NASSweep(w, program, strategy, []int{n})
				})
				p.JobsAttempted++
				if serr != nil {
					return serr
				}
				*out = append(*out, pts...)
			}
		}
		return nil
	}
	if err = sweep("ep-model-B", "ep", sz.Fig4EPNs, &ep); err == nil {
		err = sweep("is-model-B", "is", sz.Fig4ISNs, &is)
	}
	p.RunS = r.end(run).Seconds()
	if err != nil {
		w.Close()
		return nil, err
	}
	p.SimOutput = "ep\n" + exp.TimePointsCSV(ep) + "is\n" + exp.TimePointsCSV(is)
	finishWorld(r, w, p)
	return p, nil
}

// scaleOptions is the 20 000-host federated world of the scale pair,
// with the knobs exp's scaleAt applies past 2000 hosts set explicitly so
// the world does not change if those defaults move.
func scaleOptions(sz sizes, seed int64, shards int) exp.Options {
	base := mustGrid("synth:S=16")
	base.HostsPerSite = (sz.ScaleHosts + 15) / 16
	o := exp.DefaultOptions(seed)
	o.Topology = base
	o.Supernodes = 4
	o.Shards = shards
	o.MaxPeersReturned = 512
	o.PeerRefreshInterval = time.Hour
	o.PeerCacheCap = 2
	o.BootSpread = 2 * time.Minute
	o.PeerAliveInterval = 4 * time.Minute
	return o
}

// convergeFrontal fast-forwards the submitter's view to the whole
// membership. Boot leaves the frontal knowing one or two 512-host reply
// windows; each 60 s refresh adds another window at a seeded offset, so
// how many hosts its 20 s probe rounds touch during the measured window
// would depend on where the draws happened to land (50k to 67k pings
// across four seeds, and the probe rounds are most of the steady-state
// cost). A deployment that has been up for an hour knows everyone: the
// harness gets there at once with the same FetchFrom + Cache.Update that
// Boot's own warm-up uses.
func convergeFrontal(w *exp.World) error {
	want := len(w.Peers)
	node := w.Net.Node(w.FrontalID)
	done := make(chan struct{})
	w.S.Go("bench.converge", func() {
		defer close(done)
		for i := 0; i < 1024 && w.Frontal.Cache().Size() < want; i++ {
			if peers, err := overlay.FetchFrom(node, w.SNAddrs[i%len(w.SNAddrs)], 2*time.Second); err == nil {
				w.Frontal.Cache().Update(peers)
			}
		}
	})
	for i := 0; i < 120; i++ {
		w.RunFor(time.Second)
		select {
		case <-done:
			if got := w.Frontal.Cache().Size(); got < want {
				return fmt.Errorf("frontal knows %d of %d peers after 1024 fetches", got, want)
			}
			return nil
		default:
		}
	}
	return fmt.Errorf("frontal view did not converge in 120 virtual seconds")
}

// runScaleBoot boots the big federated world, submits one hostname job
// per registered strategy, then runs a steady-state membership window.
// shards = 1 is the sequential engine, 2 the conservative parallel one;
// everything simulated but reg_ms must be identical between them.
func runScaleBoot(r *recorder, sz sizes, seed int64, shards int) (*point, error) {
	p := &point{}
	w, err := bootWorld(r, scaleOptions(sz, seed, shards), p)
	if err != nil {
		return nil, err
	}
	run := r.begin("run")
	r.do("converge", func() { err = convergeFrontal(w) })
	if err != nil {
		r.end(run)
		w.Close()
		return nil, err
	}
	var pts []exp.ScalePoint
	for _, strategy := range core.Strategies() {
		ok0, nok0 := w.ReserveStats()
		fed0 := w.FederationStats()
		var res *mpd.JobResult
		r.do("exp.World.Submit."+strategy.String(), func() {
			res, err = w.Submit(mpd.JobSpec{
				Program: "hostname", N: sz.ScaleN, R: 1,
				Strategy: strategy, Timeout: 10 * time.Minute,
			})
		})
		p.JobsAttempted++
		if err == nil && res.Failures() > 0 {
			err = fmt.Errorf("%d slots failed", res.Failures())
		}
		if err != nil {
			err = fmt.Errorf("submit %s: %w", strategy, err)
			break
		}
		ok1, nok1 := w.ReserveStats()
		fed1 := w.FederationStats()
		// RegMS stays zero: it is the one column that differs between the
		// sequential and the sharded engine.
		pts = append(pts, exp.ScalePoint{
			Strategy: strategy,
			Hosts:    w.Grid.TotalHosts(), Cores: w.Grid.TotalCores(), Sites: len(w.Grid.SiteOrder),
			N: sz.ScaleN, R: 1, SN: len(w.SNs),
			Seconds:   res.Duration.Seconds(),
			HostsUsed: res.Assignment.UsedHosts(), SitesUsed: len(res.Assignment.HostsBySite()),
			ReserveOK: ok1 - ok0, ReserveNOK: nok1 - nok0,
			StaleMS:   float64(fed1.MeanStaleness()) / float64(time.Millisecond),
			MembBytes: (fed1.BytesIn + fed1.BytesOut) - (fed0.BytesIn + fed0.BytesOut),
		})
	}
	var steady time.Duration
	if err == nil {
		steady = r.do("steady", func() {
			for i := 0; i < sz.ScaleSteadyVM; i++ {
				r.do("exp.World.RunFor.1vmin", func() { w.RunFor(time.Minute) })
			}
		})
	}
	p.RunS = r.end(run).Seconds()
	if err != nil {
		w.Close()
		return nil, err
	}
	p.Phase["exp.steady_s_per_vmin"] = steady.Seconds() / float64(sz.ScaleSteadyVM)
	p.SimOutput = exp.FederationPointsCSV(pts)
	finishWorld(r, w, p)
	return p, nil
}

// worldOptions returns the exp.Options of the world a workload boots.
// For open_slo it is what RunOpen derives from (opts, cfg): nothing but
// the topology, since 128 hosts over 80 virtual minutes trips neither
// its large-world nor its long-horizon diet.
func worldOptions(name string, sz sizes, seed int64) exp.Options {
	o := exp.DefaultOptions(seed)
	switch name {
	case wlScaleFed:
		o = scaleOptions(sz, seed, 1)
	case wlScaleSharded:
		o = scaleOptions(sz, seed, 2)
	case wlOpenSLO:
		o.Topology = mustGrid(sz.OpenGrid)
	case wlHostileFed:
		o = hostileOptions(sz, seed)
	}
	return o
}

// twinBoot builds, boots and closes a world without running anything on
// it. It measures set-up for a monolithic family runner, which owns its
// world (the twin runs immediately before the point), and gives every
// workload extra set-up samples. The twin is harness time: it is not
// part of point_wall_s.
func twinBoot(r *recorder, opts exp.Options) (*point, error) {
	p := &point{}
	id := r.begin(harnessPrefix + "twin")
	w, err := bootWorld(r, opts, p)
	if err == nil {
		r.sample = nil
		p.CloseS = r.do("exp.World.Close", w.Close).Seconds()
		p.Phase["exp.close_s"] = p.CloseS
	}
	r.end(id)
	return p, err
}

// openConfig is the open-system SLO tier: weekly Grid'5000-shaped
// arrivals compressed onto a 2 h period, six tenants with the heavy
// users in the low-priority class (skew -1), quotas, preemption and
// deadlines all armed.
func openConfig(sz sizes) exp.OpenConfig {
	return exp.OpenConfig{
		Base: mustGrid(sz.OpenGrid),
		Arrival: workload.ArrivalSpec{
			Kind: workload.ArrivalWeekly, Peak: 0.3, Trough: 0.08, Period: time.Duration(sz.OpenHorizonMin) * time.Minute / 2,
		},
		Tenants: 6, TenantSkew: -1, PriorityLevels: 2,
		Duration: time.Duration(sz.OpenHorizonMin) * time.Minute,
		NMin:     4, NMax: 32,
		DurMin: 30, DurMax: 240,
		Workers:   32,
		QuotaRate: 30, QuotaBurst: 2000, Preempt: true,
		DeadlineFactors: []float64{6, 3},
	}
}

// runOpenSLO is one exp.RunOpen point: an open loop in virtual time
// (arrivals fire on schedule whatever the backlog). RunOpen owns its
// world, so set-up comes from a twin and the live heap from sampling the
// runtime's own live-heap gauge while the runner is inside its horizon.
func runOpenSLO(r *recorder, sz sizes, seed int64) (*point, error) {
	cfg := openConfig(sz)
	twin, err := twinBoot(r, worldOptions(wlOpenSLO, sz, seed))
	if err != nil {
		return nil, err
	}
	var (
		pt   exp.OpenPoint
		hs   *heapSampler
		live uint64
	)
	r.do(harnessPrefix+"heap_sampler.start", func() { hs = startHeapSampler() })
	wall := r.do("exp.RunOpen", func() { pt, err = exp.RunOpen(exp.DefaultOptions(seed), cfg, core.Spread) })
	r.do(harnessPrefix+"heap_sampler.stop", func() { live = hs.stop() })
	if err != nil {
		return nil, err
	}
	p := &point{
		SetupS: twin.SetupS, CloseS: twin.CloseS, WallS: wall.Seconds(),
		LiveHeapB: live,
		Hosts:     twin.Hosts, VSec: pt.HorizonSeconds,
		JobsAttempted: pt.Measured, JobsFailed: pt.Failed,
		SimOutput: exp.OpenPointsCSV([]exp.OpenPoint{pt}),
		Counts: map[string]float64{
			"workload.submitted":  float64(pt.Submitted),
			"sched.throttle_rate": pt.QuotaThrottleRate,
			"sched.preemptions":   float64(pt.Preemptions),
			"churn.failures":      float64(pt.FailuresInjected),
		},
		Phase: twin.Phase,
	}
	p.RunS = p.WallS - p.SetupS
	p.Phase["exp.live_heap_b_per_host"] = float64(live) / float64(p.Hosts)
	p.Phase["exp.steady_s_per_vmin"] = p.RunS / float64(sz.OpenHorizonMin)
	return p, nil
}

// hostileSeed fans the run seed out to the fault and churn traces,
// away from the world's own jitter streams.
func hostileSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte("bench|hostile|" + stream))
	return seed ^ int64(h.Sum64())
}

// hostileOptions is the hostile world: federated, with the RPC retry
// layer and the per-supernode breaker armed.
func hostileOptions(sz sizes, seed int64) exp.Options {
	o := exp.DefaultOptions(seed)
	o.Topology = mustGrid(sz.HostileGrid)
	o.RPCRetries = 2
	o.BreakerThreshold = 3
	if o.Topology.TotalHosts() > 1000 {
		// The large-world membership diet exp's churn and nemesis
		// families apply.
		o.MaxPeersReturned = 512
		o.PeerRefreshInterval = time.Hour
		o.PeerCacheCap = 2
	}
	return o
}

// runHostileFed is the failure path of the same layers: the recipe of
// exp's nemesis family (NewWorld, Boot, StartFaults, StartChurn, a
// sched.Scheduler over the frontal) composed from its exported parts,
// but over a fixed virtual horizon instead of a fixed batch. A batch's
// makespan is the maximum over stochastic retry chains — one job stuck
// behind a partition until its 5-minute timeout moved the host time of
// a 20-job NemesisSweep point between 3.9 s and 6.3 s across eight
// seeds — whereas the fault load per virtual second is steady. More
// jobs are queued than can finish; the ones that reach a terminal state
// inside the horizon are the attempts.
func runHostileFed(r *recorder, sz sizes, seed int64) (*point, error) {
	const (
		jobN, jobR = 16, 2
		jobSeconds = 60.0
		workers    = 4
	)
	horizon := time.Duration(sz.HostileVMin) * time.Minute
	p := &point{}
	w, err := bootWorld(r, hostileOptions(sz, seed), p)
	if err != nil {
		return nil, err
	}
	run := r.begin("run")
	var (
		fd *faults.Driver
		hw *exp.HealWatch
		cd *churn.Driver
	)
	r.do("exp.World.StartFaults", func() {
		fd, hw = w.StartFaults(faults.Config{
			Seed:     hostileSeed(seed, "faults"),
			Loss:     0.1,
			PartMTBF: 90 * time.Second, PartMTTR: 40 * time.Second, Split: true,
			DupProb: 0.01, DupDelay: 50 * time.Millisecond,
			GrayFrac: 0.05, GrayMTBF: 5 * time.Minute, GrayMTTR: time.Minute, GrayDrop: 0.5, GraySlow: 4,
			Horizon: horizon + time.Minute,
		})
	})
	r.do("exp.World.StartChurn", func() {
		cd = w.StartChurn(churn.Config{
			Seed: hostileSeed(seed, "churn"),
			MTBF: 20 * time.Minute, MTTR: time.Minute,
			Horizon: horizon + time.Minute,
		})
	})
	sc := sched.New(w.S, w.Frontal, w.HostSlots(), sched.Config{
		Workers: workers, Retries: 4, Backoff: 5 * time.Second,
		Seed: seed, IsContention: exp.ChurnRetryable,
	})
	spec := mpd.JobSpec{
		Program: "spin", Args: []string{fmt.Sprintf("%g", jobSeconds)},
		N: jobN, R: jobR, Strategy: core.Spread,
		Timeout:       time.Duration(3*jobSeconds)*time.Second + 2*time.Minute,
		FailureDetect: 10 * time.Second, ReserveRetries: 1,
	}
	// Twice what the workers could finish failure-free, so the queue
	// never drains inside the horizon.
	queued := 2 * workers * int(horizon.Seconds()/jobSeconds)
	done := make(chan []*sched.Job, 1)
	w.S.Go("bench.hostile", func() {
		sc.Start()
		for i := 0; i < queued; i++ {
			sc.Enqueue(spec)
		}
		jobs, _ := sc.WaitTimeout(queued, horizon)
		done <- jobs
	})
	var jobs []*sched.Job
	returned := false
	horizonS := r.do("exp.World.RunFor.horizon", func() {
		w.RunFor(horizon)
		for i := 0; !returned && i < 60; i++ {
			select {
			case jobs = <-done:
				returned = true
			default:
				w.RunFor(time.Second)
			}
		}
	}).Seconds()
	injected := fd.Stop()
	heal := hw.Stats()
	crashes := cd.Stop()
	p.RunS = r.end(run).Seconds()
	if !returned {
		w.Close()
		return nil, fmt.Errorf("horizon actor did not return")
	}

	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	var b strings.Builder
	b.WriteString("job,attempts,latency_s,lost_ranks,failovers,hosts_lost,failed\n")
	var failovers, rebooks int
	for _, j := range jobs {
		failed := j.Err != nil || j.Result == nil || j.Result.LostRanks() > 0
		p.JobsAttempted++
		rebooks += j.Attempts - 1
		lost, fo, hl := 0, 0, 0
		if j.Result != nil {
			lost, fo, hl = j.Result.LostRanks(), j.Result.Failover.Failovers, j.Result.Failover.HostsLost
		}
		if failed {
			p.JobsFailed++
		} else {
			failovers += fo
		}
		fmt.Fprintf(&b, "%d,%d,%.6f,%d,%d,%d,%t\n", j.ID, j.Attempts, j.Latency().Seconds(), lost, fo, hl, failed)
	}
	fmt.Fprintf(&b, "partitions,%d,cut_pairs,%d,partition_s,%.3f,gray,%d,crashes,%d,heal_samples,%d,heal_s,%.4f\n",
		injected.Partitions, injected.CutPairs, injected.PartitionTime.Seconds(), injected.GrayEpisodes,
		crashes.Failures, heal.HealSamples, heal.HealTime.Seconds())
	p.SimOutput = b.String()
	p.Phase["exp.steady_s_per_vmin"] = horizonS / float64(sz.HostileVMin)
	finishWorld(r, w, p)
	p.Counts["mpd.failovers"] = float64(failovers)
	p.Counts["sched.rebooks"] = float64(rebooks)
	p.Counts["churn.failures"] = float64(crashes.Failures)
	p.Counts["faults.partitions"] = float64(injected.Partitions)
	p.Counts["faults.gray_episodes"] = float64(injected.GrayEpisodes)
	if heal.HealSamples > 0 {
		p.Counts["faults.heal_s_mean"] = heal.HealTime.Seconds() / float64(heal.HealSamples)
	}
	return p, nil
}
