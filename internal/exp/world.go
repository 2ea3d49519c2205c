package exp

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/latency"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/nas"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// FrontalHost is the submitter machine at nancy (job origin, §5) on the
// default Grid5000 topology. It also hosts the supernode and accepts no
// processes (P = 0). Worlds built from other topologies compute their
// own frontal ID ("frontal." + origin site); use World.FrontalID.
const FrontalHost = "frontal.nancy"

// Options tunes a World.
type Options struct {
	// Seed drives all stochastic elements (jitter, keys).
	Seed int64
	// Topology selects the testbed to deploy. The zero value builds the
	// paper's Grid'5000 (Table 1, 350 hosts); synthetic specs scale
	// worlds to thousands of hosts (grid.ParseTopologySpec for the
	// "synth:S=12,H=400" syntax).
	Topology grid.TopologySpec
	// FrontalPingInterval is the submitter's probe period; the paper's
	// MPD pings periodically and the ranking noise between submissions
	// comes from here.
	FrontalPingInterval time.Duration
	// Estimator selects the submitter's latency estimator (default:
	// KindLast, the paper's single-sample behaviour; windowed kinds keep
	// latency.New's 8 samples). Used by the estimator study.
	Estimator latency.Kind
	// MaxPeersReturned bounds the supernode's host-list replies (0 =
	// unbounded). See overlay.SupernodeConfig.MaxPeersReturned.
	MaxPeersReturned int
	// PeerRefreshInterval overrides the compute peers' cache-refresh
	// period (0 keeps the middleware default). Long-horizon sweeps on
	// multi-thousand-host worlds stretch it: every peer refresh ships a
	// host-list reply, an O(world) message that no measurement consumes
	// — only the submitter's view feeds the experiments. The frontal's
	// refresh period is never touched.
	PeerRefreshInterval time.Duration
	// PeerCacheCap bounds the total entries a compute peer's cache
	// retains before anything reads it (0 = unbounded, the historical
	// behaviour). The frontal is always exempt — its view feeds every
	// measurement. Large-world sweeps set this: an unread boot snapshot
	// of MaxPeersReturned entries per host is the dominant per-host
	// retention at hundreds of thousands of hosts.
	PeerCacheCap int
	// Supernodes is the membership-federation width K. 0 defers to the
	// topology spec's sn value (itself defaulting to 1). K = 1 deploys
	// the paper's single supernode on the frontal host — the historical
	// world, bit-for-bit. K > 1 shards the membership across K
	// supernodes on dedicated hosts placed round-robin over the sites
	// (site-aware: a whole-site outage cannot take the whole tier down),
	// gossiping digests so each can answer with a near-complete merged
	// view; peers register with their rendezvous-hash home shard and
	// fail over across shards.
	Supernodes int
	// BootSpread staggers the daemon starts over this virtual span (0 =
	// the historical everyone-at-vtime-0 boot). Booting a million
	// daemons at the same virtual instant means a million registrations
	// in flight at once, each with its conns, deadline and reply frame;
	// spreading the starts bounds them to roughly
	// hosts × (registration RTT / spread). Each daemon's start time is a
	// pure function of its global boot rank, so staggered worlds keep
	// byte-identical trajectories across -shards. Huge-world sweeps
	// (>100k hosts) default this; see scaleAt.
	BootSpread time.Duration
	// PeerAliveInterval overrides the compute peers' supernode
	// keep-alive period (0 keeps the middleware default, 30s). The
	// frontal is never touched. Huge-world sweeps stretch it: at a
	// million hosts the default cadence is 33k keep-alive round trips
	// per virtual second of pure liveness noise, and the supernode TTL
	// (10 minutes) tolerates a far sparser heartbeat.
	PeerAliveInterval time.Duration
	// RPCRetries and BreakerThreshold configure the daemons' RPC
	// robustness layer (see mpd.Shared): retryable control-plane
	// failures re-try with seeded exponential backoff, and a
	// per-supernode circuit breaker skips gray members. All zero — the
	// default — keeps every exchange single-shot, the historical
	// behaviour, so fault-free worlds replay bit-for-bit.
	RPCRetries       int
	BreakerThreshold int
	// Shards partitions the world's sites onto that many event-loop
	// shards of the world's vtime.Domain, run as a conservative parallel
	// simulation (windowed barriers, cross-site lookahead — see
	// vtime.Domain and docs/PERF.md). 0 or 1 is a one-shard domain: every
	// window runs inline on the caller's goroutine, the historical
	// sequential trajectory bit-for-bit. Clamped to the site count. The
	// CSV outputs of the sweep families are identical across shard
	// counts; only wall-clock time changes.
	Shards int
}

// DefaultOptions returns the harness configuration used for the paper's
// figures.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:                seed,
		FrontalPingInterval: 20 * time.Second,
	}
}

// peerPingInterval is the probe period of compute peers. Only the
// submitter's measurements influence the experiments, so the harness
// keeps peers' own probing sparse to bound simulation cost.
const peerPingInterval = time.Hour

// membershipDiet bounds a large world's membership traffic over long
// horizons: every peer refresh and re-registration ships a host-list
// reply, O(world) per message and O(world²) per virtual minute summed
// over peers — none of which feeds a measurement. It bounds the
// supernode's replies well above the booking fan-out (the processes
// one job books, N×R), slows the compute peers' refreshes (their cached
// lists are never consulted; the frontal's cadence is untouched) and
// keeps a token couple of entries per compute-peer cache, whose unread
// O(MaxPeersReturned) boot snapshots otherwise dominate per-host
// retention. A knob the caller already set wins.
func (o *Options) membershipDiet(fanout int) {
	if o.MaxPeersReturned == 0 {
		o.MaxPeersReturned = max(512, 4*mpd.BookingTarget(fanout))
	}
	if o.PeerRefreshInterval == 0 {
		o.PeerRefreshInterval = time.Hour
	}
	if o.PeerCacheCap == 0 {
		o.PeerCacheCap = 2
	}
}

// World is one booted deployment: one compute peer per grid host, a
// supernode tier (one member, or a K-shard federation), one submitter
// frontend, all under a virtual clock.
type World struct {
	// S is D.Shard(0), the scheduler daemon code on the origin site (the
	// frontal, every K=1 supernode) runs under — with Options.Shards <= 1
	// the domain's only shard. External actors that talk to the frontal
	// (submitters) spawn here. S is for spawning actors and
	// reading the clock, never for driving: S.RunFor would advance shard 0
	// behind the domain's committed horizon.
	S *vtime.Scheduler
	// D is the domain that owns the world's clock: every world has one
	// (one shard unless Options.Shards > 1). World.RunFor drives it; churn,
	// fault and heal-poll events are its global events.
	D       *vtime.Domain
	Net     *simnet.Net
	Grid    *grid.Grid
	SNs     []*overlay.Supernode
	Frontal *mpd.MPD
	Peers   []*mpd.MPD
	// FrontalID and SNAddr locate the submitter frontend and supernode
	// inside this world ("frontal.<origin>" / "frontal.<origin>:8800";
	// FrontalID equals the FrontalHost constant on Grid5000).
	// SNAddrs lists the whole federation in shard order (len 1 when
	// Supernodes <= 1).
	FrontalID string
	SNAddr    string
	SNAddrs   []string
	// snHosts names the dedicated supernode hosts of a federation (empty
	// when the single supernode rides on the frontal) with their sites —
	// churn injects failures on them too.
	snHosts   []snHost
	siteShard map[string]int // site -> shard index
	opts      Options
}

// snHost pins one dedicated supernode host to its site.
type snHost struct{ id, site string }

// Programs returns the registry every peer runs: the paper's hostname
// experiment, the Class-B NAS pattern programs under the harness's
// calibration, and spin (a fixed-duration worker, the unit of work of
// the churn sweeps).
func Programs() map[string]mpd.Program {
	cost := nas.DefaultCostModel()
	return map[string]mpd.Program{
		"hostname":   mpd.Hostname,
		"spin":       mpd.Spin,
		"ep-model-B": nas.EPModelProgram(nas.EPClassB, cost),
		"is-model-B": nas.ISModelProgram(nas.ISClassB, cost),
	}
}

// NewWorld builds (without booting) the full testbed described by
// opts.Topology (Grid5000 by default).
func NewWorld(opts Options) *World {
	g := opts.Topology.Build()
	k := opts.Supernodes
	if k <= 0 {
		k = opts.Topology.Defaulted().Supernodes
	}
	if k < 1 {
		k = 1
	}
	frontalID := "frontal." + g.Origin
	snAddr := frontalID + ":8800"
	topo := simnet.NewGridTopology(g)
	topo.AddHost(frontalID, g.Origin)

	w := &World{Grid: g, FrontalID: frontalID, SNAddr: snAddr, opts: opts}
	if k == 1 {
		w.SNAddrs = []string{snAddr}
	} else {
		// A K-shard federation on dedicated hosts, spread round-robin
		// over the sites (site-aware: one switch or power domain cannot
		// take the whole membership tier down). Dedicated hosts keep the
		// tier's traffic off the frontal's and the compute peers' NICs,
		// which is what lets a federated world reproduce a standalone
		// world's data-plane timeline exactly.
		w.SNAddrs = make([]string, k)
		for i := 0; i < k; i++ {
			site := g.SiteOrder[i%len(g.SiteOrder)]
			id := fmt.Sprintf("snfed%02d.%s", i+1, site)
			w.snHosts = append(w.snHosts, snHost{id: id, site: site})
			w.SNAddrs[i] = id + ":8800"
			topo.AddHost(id, site)
		}
		w.SNAddr = w.SNAddrs[0]
	}

	// Host ranks in sequential boot-spawn order (supernode tier,
	// frontal, grid hosts): the cross-shard merge breaks timestamp
	// ties by rank, which reproduces the sequential ordering of the
	// vtime-0 registration storm. On one shard ranks are inert, but the
	// frozen slab and the explicit sites still spare the per-host
	// allocations and the grid's O(world) host index.
	ranked := make([]string, 0, len(w.snHosts)+1+len(g.Hosts))
	sites := make([]string, 0, cap(ranked))
	for _, sh := range w.snHosts {
		ranked = append(ranked, sh.id)
		sites = append(sites, sh.site)
	}
	ranked = append(ranked, frontalID)
	sites = append(sites, g.Origin)
	for _, h := range g.Hosts {
		ranked = append(ranked, h.ID)
		sites = append(sites, h.Site)
	}

	// Scheduler fabric: a conservative domain partitioned by site — one
	// shard (every window inline, no lookahead in play) unless
	// opts.Shards asks for more. Shard 0 always holds the origin site
	// (Partition contract), so the frontal and its external actors are on
	// w.S.
	part := g.PartitionSites(opts.Shards)
	if part.SiteShard[g.Origin] != 0 {
		panic("exp: origin site not on shard 0")
	}
	w.D = vtime.NewDomain(part.N(), g.MinCrossLatency(part))
	w.S = w.D.Shard(0)
	w.siteShard = part.SiteShard
	w.Net = simnet.NewSharded(w.D, topo, simnet.DefaultConfig(opts.Seed), simnet.ShardConfig{
		SiteShard: part.SiteShard,
		Hosts:     ranked,
		Sites:     sites,
		Check:     os.Getenv("VTIME_CHECK") == "1",
	})
	net := w.Net

	// One interner per world: every daemon and supernode canonicalizes
	// the PeerInfo values it retains against it. Pure memory sharing of
	// equal values — trajectories are untouched. It numbers the hosts in
	// rank order, so a cache's record layout is the same on any shard
	// count.
	intern := overlay.NewInterner()
	intern.AssignHosts(ranked)

	// One supernode per address. K=1 is a one-member federation hosted on
	// the frontal (no dedicated host): a lone member never gossips and
	// member 0's seed is opts.Seed, so every pre-federation experiment
	// replays bit-for-bit.
	for i, addr := range w.SNAddrs {
		host := snHost{id: frontalID, site: g.Origin}
		if len(w.snHosts) > 0 {
			host = w.snHosts[i]
		}
		w.SNs = append(w.SNs, overlay.NewSupernode(w.shardFor(host.site), net.Node(host.id), overlay.SupernodeConfig{
			Addr:             addr,
			TTL:              10 * time.Minute,
			MaxPeersReturned: opts.MaxPeersReturned,
			Seed:             opts.Seed + int64(i)*1013,
			Shard:            i,
			Federation:       w.SNAddrs,
			Intern:           intern,
		}))
	}

	// On synthetic (usually much larger) worlds the daemons skip their
	// boot-time ping round: all-pairs probing is quadratic in world size
	// and only the submitter's latency view feeds the experiments — and
	// the submitter's warm-up (Boot) explicitly waits out one full
	// periodic probe round, so its boot round is redundant too. Skipping
	// the frontal's boot round also keeps its probe flows a pure
	// function of the warmed cache rather than of which peers happened
	// to beat it to its supernode shard, which is what makes K=1 and
	// K>1 worlds probe identically. The Grid5000 path keeps the
	// historical behaviour so published figures replay byte-for-byte.
	bootPing := !opts.Topology.IsSynthetic()

	programs := Programs()
	w.Frontal = mpd.New(w.S, net.Node(frontalID), mpd.Config{
		Self: proto.PeerInfo{
			ID: frontalID, Site: g.Origin,
			MPDAddr: frontalID + ":9000", RSAddr: frontalID + ":9001",
		},
		P:    0, // the frontend submits, it does not compute
		Seed: opts.Seed,
		Shared: &mpd.Shared{
			SupernodeAddr:    w.SNAddr,
			Federation:       w.SNAddrs, // every daemon computes its own home shard
			Programs:         programs,
			PingInterval:     opts.FrontalPingInterval,
			Estimator:        opts.Estimator,
			NoBootPing:       !bootPing,
			Intern:           intern,
			RPCRetries:       opts.RPCRetries,
			BreakerThreshold: opts.BreakerThreshold,
		},
	})

	// Provision the compute daemons in parallel. Construction touches no
	// scheduler or simulated-network state — net.Node returns a stateless
	// view, the interner is a concurrent map of value-equal entries, and
	// every lazily built daemon member stays nil — and each worker fills
	// disjoint w.Peers slots by index, so the result is identical to the
	// sequential loop. A million-host world provisions on all cores
	// instead of one.
	w.Peers = make([]*mpd.MPD, len(g.Hosts))
	// One Shared block backs every compute daemon: at a million hosts
	// the deployment-invariant half of the config is the difference
	// between one struct and hundreds of MB of identical copies.
	peerShared := &mpd.Shared{
		SupernodeAddr:    w.SNAddr,
		Federation:       w.SNAddrs, // every daemon computes its own home shard
		AliveInterval:    opts.PeerAliveInterval,
		Programs:         programs,
		PingInterval:     peerPingInterval,
		RefreshInterval:  opts.PeerRefreshInterval,
		NoBootPing:       !bootPing,
		Intern:           intern,
		PeerCacheCap:     opts.PeerCacheCap,
		RPCRetries:       opts.RPCRetries,
		BreakerThreshold: opts.BreakerThreshold,
	}
	buildPeer := func(i int) {
		h := g.Hosts[i]
		cl := g.ClusterOf(h)
		w.Peers[i] = mpd.New(w.shardFor(h.Site), net.Node(h.ID), mpd.Config{
			Self: proto.PeerInfo{
				ID: h.ID, Site: h.Site,
				MPDAddr: h.ID + ":9000", RSAddr: h.ID + ":9001",
			},
			// The experiments set P to the number of cores of the host
			// (§5: "their P parameter is set to the number of cores").
			P: h.Cores,
			J: 1,
			Profile: mpd.HostProfile{
				Cores:      h.Cores,
				CoreGFLOPS: cl.CoreGFLOPS,
				MemBWGBs:   cl.HostMemBWGBs,
			},
			Seed:   opts.Seed + int64(h.Index) + int64(len(h.ID))*131,
			Shared: peerShared,
		})
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(g.Hosts) >= 4096 {
		var wg sync.WaitGroup
		chunk := (len(g.Hosts) + workers - 1) / workers
		for lo := 0; lo < len(g.Hosts); lo += chunk {
			hi := lo + chunk
			if hi > len(g.Hosts) {
				hi = len(g.Hosts)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					buildPeer(i)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for i := range g.Hosts {
			buildPeer(i)
		}
	}
	return w
}

// shardFor returns the scheduler of the shard owning a site. Every
// daemon runs on the shard of its host's site, so its actors only ever
// touch that shard's network state.
func (w *World) shardFor(site string) *vtime.Scheduler {
	return w.D.Shard(w.siteShard[site])
}

// RunFor advances the world's virtual clock by d. Harness code must
// pump through this (not w.S.RunFor) to drive the whole domain.
func (w *World) RunFor(d time.Duration) { w.D.RunFor(d) }

// Boot starts every daemon and warms up the submitter's latency table
// (one cache refresh plus a ping round over all 350 peers).
func (w *World) Boot() error {
	// Group the daemon starts by shard, preserving the global order
	// (supernode tier, frontal, grid hosts) within each shard: one chain
	// of timer events per shard starts its daemons in that order, so
	// every shard's vtime-0 registration storm executes in host-rank
	// order and the cross-shard merge's rank tiebreak stitches the shards
	// back into the sequential ordering. Each Start issues its daemon's
	// registration inline; nothing in the boot is an actor.
	//
	// With Options.BootSpread set, daemon rank r starts at virtual time
	// r×step instead of 0: each shard's chain queues its next event at
	// the next global-rank target, so in-flight registrations stay
	// bounded. The target is a function of the global rank only — never
	// of the shard layout — so a staggered world's trajectory is
	// identical at every -shards value.
	type bootStart struct {
		rank int
		fn   func() error
	}
	starts := make([][]bootStart, w.D.Shards())
	rank := 0
	add := func(site string, fn func() error) {
		si := w.siteShard[site]
		starts[si] = append(starts[si], bootStart{rank: rank, fn: fn})
		rank++
	}
	for i, sn := range w.SNs {
		site := w.Grid.Origin
		if len(w.snHosts) > 0 {
			site = w.snHosts[i].site
		}
		add(site, sn.Start)
	}
	add(w.Grid.Origin, w.Frontal.Start)
	for i, h := range w.Grid.Hosts {
		add(h.Site, w.Peers[i].Start)
	}
	var step time.Duration
	if w.opts.BootSpread > 0 && rank > 1 {
		step = w.opts.BootSpread / time.Duration(rank-1)
	}
	bootErrs := make([]error, len(starts))
	for si, list := range starts {
		if len(list) == 0 {
			continue
		}
		rt := w.D.Shard(si)
		t0 := rt.Elapsed()
		var next func()
		next = func() {
			for len(list) > 0 {
				if d := t0 + time.Duration(list[0].rank)*step - rt.Elapsed(); d > 0 {
					rt.Schedule(d, next)
					return
				}
				if err := list[0].fn(); err != nil {
					bootErrs[si] = err
					return
				}
				list = list[1:]
			}
		}
		rt.Schedule(0, next)
	}
	w.RunFor(w.opts.BootSpread + 2*time.Second)
	for _, err := range bootErrs {
		if err != nil {
			return err
		}
	}
	// The frontal registered before the peers: refresh its view and
	// measure everyone, as the MPD does before booking (§4.2 step 2).
	w.S.Schedule(0, func() {
		transport.Call(w.Net.Node(w.FrontalID), w.SNAddr,
			transport.Message{Payload: proto.MustMarshal(&proto.FetchPeers{})}, 2*time.Second,
			func(reply transport.Message, err error) {
				if err == nil {
					w.Frontal.Cache().UpdateFrame(reply.Payload)
					reply.Release()
				}
			})
	})
	w.RunFor(5 * time.Second)
	w.RunFor(w.opts.FrontalPingInterval + 10*time.Second) // one full probe round
	want := len(w.Peers)
	if limit := w.opts.MaxPeersReturned; limit > 0 && limit-1 < want {
		// A bounded reply window may include the frontal's own registry
		// entry, which the cache drops — so a healthy world can surface
		// at most limit-1 peers from the single warm fetch. Floor at 1
		// so the check still catches a dead supernode (a limit of 1 is
		// below what this harness can boot).
		want = limit - 1
		if want < 1 {
			want = 1
		}
	}
	if got := w.Frontal.Cache().Size(); got < want {
		return fmt.Errorf("exp: frontal knows %d peers, want %d", got, want)
	}
	return nil
}

// StartChurn replays the host-crash part of cfg (see
// faults.Config.Crashes) on the world and starts it: a failing host is
// dropped by the simulated network and its MPD crashes (hosted jobs die
// unreported, reservations are released as failures — not conflicts);
// a reviving host regains its links and re-registers with the
// supernode. It leaves the network's constant knobs alone, so it
// composes with a StartFaults on the same world. Call Stop on the
// returned driver to halt injection and read the injected totals.
func (w *World) StartChurn(cfg faults.Config) *faults.Driver {
	d, _ := w.inject(cfg.Crashes())
	return d
}

// StartFaults replays the whole fault model on the world and starts
// it: site-pair cuts (including federation-splitting bisections)
// toggle simnet link cuts, gray episodes degrade the host's links,
// crashes take hosts down as under StartChurn, and the constant knobs —
// uniform loss, latency inflation, bounded duplication — apply for the
// whole run. The returned HealWatch measures split-brain windows and,
// on federated worlds, the anti-entropy healing latency after each
// spell.
func (w *World) StartFaults(cfg faults.Config) (*faults.Driver, *HealWatch) {
	cfg = cfg.Normalized()
	// Constant degradation applies up front, before any traffic flows:
	// the predicates gating the per-frame draws must be window-constant
	// (see simnet/faults.go), and "constant over the run" trivially is.
	w.Net.SetLinkFault(cfg.Loss, cfg.LatMult)
	if cfg.DupProb > 0 {
		w.Net.SetDuplication(cfg.DupProb, cfg.DupDelay)
	}
	return w.inject(cfg)
}

// inject builds cfg's timeline over the world's fault-prone hosts and
// replays it as global events of w.D: the hooks cut links, fail hosts
// and crash daemons across shards, which is only race-free with every
// shard parked at the transition's exact virtual time — and fault state
// that only changes at a barrier keeps the trajectory byte-identical at
// every shard count.
func (w *World) inject(cfg faults.Config) (*faults.Driver, *HealWatch) {
	hosts, siteOf := w.faultHosts()
	byID := make(map[string]*mpd.MPD, len(w.Peers))
	for i, h := range w.Grid.Hosts {
		byID[h.ID] = w.Peers[i]
	}
	hw := &HealWatch{w: w}
	d := faults.NewDriver(w.D, faults.Trace(w.Grid.SiteOrder, hosts, siteOf, cfg), faults.Hooks{
		Partition: func(a, b string, on bool) {
			w.Net.SetCut(a, b, on)
			if on {
				hw.onSplit()
			}
		},
		Gray: func(host string, on bool) {
			w.Net.SetGray(host, cfg.GrayDrop, cfg.GraySlow, on)
		},
		Healed: hw.onHealed,
		Down: func(id string) {
			w.Net.FailHost(id)
			if p := byID[id]; p != nil {
				p.Crash()
			}
		},
		Up: func(id string) {
			w.Net.RestoreHost(id)
			if p := byID[id]; p != nil {
				p.Reannounce()
			}
		},
	})
	d.SetHostCount(len(hosts)) // normalize DownFraction over the platform
	d.Start()
	return d, hw
}

// faultHosts lists the hosts faults can strike — every compute host,
// then the federation's dedicated supernode hosts — with their sites.
// Killing or graying a supernode shard forces its peers through the
// cross-shard failover path and the breaker, and a revival through
// anti-entropy healing. (The single supernode of a K=1 world rides on
// the frontal, the paper's surviving observer, which — like the
// Grid'5000 frontends — is exempt.) Each host's processes are seeded
// per host, so adding the supernode hosts moves no compute host's
// timeline.
func (w *World) faultHosts() ([]string, func(string) string) {
	hosts := make([]string, 0, len(w.Grid.Hosts)+len(w.snHosts))
	for _, h := range w.Grid.Hosts {
		hosts = append(hosts, h.ID)
	}
	snSites := make(map[string]string, len(w.snHosts))
	for _, sh := range w.snHosts {
		hosts = append(hosts, sh.id)
		snSites[sh.id] = sh.site
	}
	return hosts, func(id string) string {
		if h := w.Grid.HostByID(id); h != nil {
			return h.Site
		}
		return snSites[id]
	}
}

// HealStats summarises partition tolerance over one injection run.
type HealStats struct {
	// Splits counts partition spells; SplitTime sums their durations —
	// the total split-brain window during which federation members held
	// divergent membership views.
	Splits    int
	SplitTime time.Duration
	// HealSamples counts spells whose post-heal convergence was
	// observed; HealTime sums (and HealMax tracks the worst of) the lag
	// from the last cut lifting to every federation member reporting
	// element-wise equal version vectors (overlay.KnownVersions).
	HealSamples int
	HealTime    time.Duration
	HealMax     time.Duration
}

// HealWatch accumulates HealStats for one StartFaults run. Its hooks
// and its convergence poll run as global events of the world's domain
// (every shard parked), so reads of the supernodes' version vectors are
// race-free.
type HealWatch struct {
	w *World

	mu    sync.Mutex
	stats HealStats
	gen   int // invalidates a pending convergence poll chain
}

// healPollInterval is the virtual-time cadence of the post-heal
// convergence poll.
const healPollInterval = 250 * time.Millisecond

// Stats returns a snapshot of the accumulated measurements.
func (h *HealWatch) Stats() HealStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// onSplit invalidates any in-flight convergence poll: a new cut means
// views will diverge again, so the pending spell's healing time is
// unknowable (the next Healed restarts the measurement).
func (h *HealWatch) onSplit() {
	h.mu.Lock()
	h.gen++
	h.mu.Unlock()
}

// onHealed records the spell and, on a federated world, starts polling
// for version-vector convergence to timestamp the healing latency.
func (h *HealWatch) onHealed(start, end time.Time) {
	h.mu.Lock()
	h.stats.Splits++
	h.stats.SplitTime += end.Sub(start)
	h.gen++
	gen := h.gen
	h.mu.Unlock()
	if len(h.w.SNs) < 2 {
		return
	}
	d := h.w.D
	var poll func()
	poll = func() {
		h.mu.Lock()
		stale := gen != h.gen
		h.mu.Unlock()
		if stale {
			return // a newer cut or heal superseded this chain
		}
		if !h.w.fedConverged() {
			d.ScheduleGlobal(d.Elapsed()+healPollInterval, poll)
			return
		}
		lag := d.Now().Sub(end)
		h.mu.Lock()
		h.stats.HealSamples++
		h.stats.HealTime += lag
		if lag > h.stats.HealMax {
			h.stats.HealMax = lag
		}
		h.mu.Unlock()
	}
	d.ScheduleGlobal(d.Elapsed()+healPollInterval, poll)
}

// fedConverged reports whether every federation member knows the same
// per-shard version vector — the anti-entropy convergence predicate.
// Callers must hold a race-free vantage point (a domain barrier).
func (w *World) fedConverged() bool {
	base := w.SNs[0].KnownVersions()
	for _, sn := range w.SNs[1:] {
		v := sn.KnownVersions()
		for i := range base {
			if v[i] != base[i] {
				return false
			}
		}
	}
	return true
}

// Close shuts every daemon down and stops the domain.
func (w *World) Close() {
	for _, sn := range w.SNs {
		sn.Close()
	}
	w.Frontal.Close()
	for _, p := range w.Peers {
		p.Close()
	}
	w.D.Shutdown()
}

// FederationStats sums the supernode tier's membership-plane counters
// over every member.
func (w *World) FederationStats() overlay.SupernodeStats {
	var out overlay.SupernodeStats
	for _, sn := range w.SNs {
		s := sn.Stats()
		out.BytesIn += s.BytesIn
		out.BytesOut += s.BytesOut
		out.GossipExchanges += s.GossipExchanges
		out.GossipBytesIn += s.GossipBytesIn
		out.GossipBytesOut += s.GossipBytesOut
		out.Fostered += s.Fostered
		out.Redirects += s.Redirects
		out.StaleSamples += s.StaleSamples
		out.StaleSumNS += s.StaleSumNS
		if s.StaleMaxNS > out.StaleMaxNS {
			out.StaleMaxNS = s.StaleMaxNS
		}
	}
	return out
}

// MeanRegistrationLatency averages the successful supernode
// registration round trips over every compute peer.
func (w *World) MeanRegistrationLatency() time.Duration {
	var sum, n int64
	for _, p := range w.Peers {
		st := p.Stats()
		sum += st.RegNanos
		n += st.Registrations
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / n)
}

// ErrPumpExhausted is returned when a submission exceeds the pump budget.
var ErrPumpExhausted = errors.New("exp: submission did not complete within the simulated budget")

// Submit runs one job from the frontal, pumping the virtual clock until
// it completes (budget: one virtual hour).
func (w *World) Submit(spec mpd.JobSpec) (*mpd.JobResult, error) {
	return submitPumped(w, 3600, "exp.submit", func() (*mpd.JobResult, error) {
		return w.Frontal.Submit(spec)
	})
}
