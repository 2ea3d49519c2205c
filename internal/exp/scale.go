package exp

import (
	"fmt"
	"slices"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
)

// The scale experiment family goes past the paper's fixed 350-host
// testbed: it boots synthetic worlds of growing host counts and submits
// one job per placement strategy on each, recording how
// completion time, allocation footprint and reservation-conflict rate
// behave as the platform grows — the axis Table 1 pinned that a
// production co-allocation service must sweep.

// ScalePoint is one (strategy, world size, federation width)
// measurement.
type ScalePoint struct {
	Strategy core.Strategy
	// Hosts, Cores and Sites describe the booted world.
	Hosts, Cores, Sites int
	// N and R echo the submitted job.
	N, R int
	// Seconds is the submit-to-completion virtual time.
	Seconds float64
	// HostsUsed and SitesUsed are the allocation footprint.
	HostsUsed, SitesUsed int
	// ReserveOK and ReserveNOK count the reservation requests this
	// submission's brokering produced across every host RS; ConflictRate
	// is NOK / (OK + NOK).
	ReserveOK, ReserveNOK int
	ConflictRate          float64
	// SN is the supernode-federation width of the measured world.
	SN int
	// RegMS is the mean supernode-registration round trip over the
	// world's compute peers, in milliseconds. StaleMS is the mean gossip
	// propagation lag of applied shard snapshots (how far behind a
	// merged host-list answer can run about another shard; 0 when SN=1,
	// where every answer is authoritative). MembBytes counts the
	// membership-plane frame bytes (registers, keep-alives, fetches and
	// gossip, requests plus replies) the supernode tier served during
	// this strategy's submission window.
	RegMS, StaleMS float64
	MembBytes      int64
}

// ScaleConfig tunes a scale sweep.
type ScaleConfig struct {
	// Base is the synthetic topology template; HostCounts rescale its
	// HostsPerSite while keeping the site count, RTT distribution and
	// seed fixed. Base must be synthetic (grid5000 cannot grow).
	Base grid.TopologySpec
	// Strategies lists the policies to compare (default: every
	// strategy, in Names order).
	Strategies []core.Strategy
	// HostCounts is the world-size axis (default: the base spec's own
	// size). Counts are rounded up to a multiple of the site count.
	HostCounts []int
	// Supernodes is the federation-width axis (default: the base spec's
	// sn value, i.e. {1} unless the -grid string says otherwise). Each
	// (host count, K) coordinate boots its own world, so the sweep
	// compares K = 1/4/16 membership tiers on identical grids.
	Supernodes []int
	// N and R shape the per-strategy job (defaults 128 / 1). Each
	// submission is bounded by ten virtual minutes.
	N, R int
}

func (c *ScaleConfig) fillDefaults() error {
	if !c.Base.IsSynthetic() {
		return fmt.Errorf("exp: scale sweep needs a synthetic topology (-grid synth:...), got %q", c.Base.String())
	}
	if len(c.Strategies) == 0 {
		c.Strategies = core.Strategies()
	}
	if len(c.HostCounts) == 0 {
		c.HostCounts = []int{c.Base.TotalHosts()}
	}
	if len(c.Supernodes) == 0 {
		c.Supernodes = []int{c.Base.Defaulted().Supernodes}
	}
	for _, k := range c.Supernodes {
		if k < 1 {
			return fmt.Errorf("exp: bad federation width %d", k)
		}
	}
	if c.N <= 0 {
		c.N = 128
	}
	if c.R <= 0 {
		c.R = 1
	}
	return nil
}

// ReserveStats sums the accepted/rejected reservation counters over
// every compute peer's RS daemon.
func (w *World) ReserveStats() (ok, nok int) {
	for _, p := range w.Peers {
		a, r := p.RS().Stats()
		ok += int(a)
		nok += int(r)
	}
	return ok, nok
}

// specForHosts rescales the base topology to approximately the given
// host count by adjusting HostsPerSite (rounding up).
func specForHosts(base grid.TopologySpec, hosts int) grid.TopologySpec {
	spec := base
	sites := base.Defaulted().Sites
	spec.HostsPerSite = (hosts + sites - 1) / sites
	return spec
}

// ScaleSweep measures every configured strategy at every (world size,
// federation width) coordinate. Each coordinate owns an independent,
// freshly booted world (runnable in parallel across the pool); within
// one world the strategies submit sequentially, each charged only the
// reservation and membership traffic of its own window. Results are
// ordered (host count, federation width, strategy) and independent of
// the worker count.
func ScaleSweep(opts Options, cfg ScaleConfig, workers int) ([]ScalePoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	type coord struct{ hosts, sn int }
	var coords []coord
	for _, h := range cfg.HostCounts {
		for _, k := range cfg.Supernodes {
			coords = append(coords, coord{h, k})
		}
	}
	perWorld, err := sweep(coords, workers, func(c coord) ([]ScalePoint, error) {
		return scaleAt(opts, cfg, c.hosts, c.sn)
	})
	return slices.Concat(perWorld...), err
}

// scaleAt boots one world of ~hosts hosts under a K-wide supernode
// tier and runs every strategy on it.
func scaleAt(opts Options, cfg ScaleConfig, hosts, sn int) ([]ScalePoint, error) {
	o := opts
	o.Topology = specForHosts(cfg.Base, hosts)
	o.Supernodes = sn
	if hosts > 2000 {
		// Past a few thousand hosts unbounded host-list replies dominate
		// the simulation the same way they dominate long churn horizons.
		o.membershipDiet(cfg.N * cfg.R)
		if o.BootSpread == 0 {
			// An everyone-at-vtime-0 boot holds one registration per
			// host in flight at once — its handshake, conns, deadline
			// and reply frame — and the event free lists and buffer
			// pools keep that storm's high-water carve for good.
			// Staggering the starts
			// (rank-derived, shard-independent — see Options.BootSpread)
			// turns those peak-concurrency residues into steady-state
			// ones.
			o.BootSpread = 2 * time.Minute
		}
		if o.PeerAliveInterval == 0 {
			// The default 30s keep-alive cadence is thousands of liveness
			// round trips per virtual second on a big world, and the
			// in-flight rounds set the event-arena and buffer-pool
			// high-water marks. Sparsen the heartbeat; the 10min
			// supernode TTL tolerates it with a wide margin.
			o.PeerAliveInterval = 4 * time.Minute
		}
	}
	w := NewWorld(o)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return nil, err
	}
	regMS := float64(w.MeanRegistrationLatency()) / float64(time.Millisecond)
	var out []ScalePoint
	for _, strategy := range cfg.Strategies {
		ok0, nok0 := w.ReserveStats()
		fed0 := w.FederationStats()
		res, err := w.Submit(mpd.JobSpec{
			Program:  "hostname",
			N:        cfg.N,
			R:        cfg.R,
			Strategy: strategy,
			Timeout:  10 * time.Minute,
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", strategy, err)
		}
		if f := res.Failures(); f > 0 {
			return out, fmt.Errorf("%s: %d slots failed", strategy, f)
		}
		ok1, nok1 := w.ReserveStats()
		fed1 := w.FederationStats()
		pt := ScalePoint{
			Strategy:   strategy,
			Hosts:      w.Grid.TotalHosts(),
			Cores:      w.Grid.TotalCores(),
			Sites:      len(w.Grid.SiteOrder),
			N:          cfg.N,
			R:          cfg.R,
			Seconds:    res.Duration.Seconds(),
			HostsUsed:  res.Assignment.UsedHosts(),
			SitesUsed:  len(res.Assignment.HostsBySite()),
			ReserveOK:  ok1 - ok0,
			ReserveNOK: nok1 - nok0,
			SN:         len(w.SNs),
			RegMS:      regMS,
			StaleMS:    float64(fed1.MeanStaleness()) / float64(time.Millisecond),
			MembBytes:  (fed1.BytesIn + fed1.BytesOut) - (fed0.BytesIn + fed0.BytesOut),
		}
		if total := pt.ReserveOK + pt.ReserveNOK; total > 0 {
			pt.ConflictRate = float64(pt.ReserveNOK) / float64(total)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ScaleSheet is a scale sweep, one row per (host count, strategy)
// point — the per-strategy figure data of the scale family. The columns
// are the placement-facing ones only: a federated and a standalone
// membership tier produce byte-identical output here on a static world
// (the committed K=1 vs K=4 identity test), because the gossip
// staleness bound is tight enough not to move any placement.
// FederationSheet adds the membership-tier columns.
func ScaleSheet(pts []ScalePoint) Sheet {
	s := newSheet("strategy,hosts,cores,sites,n,r,seconds,hosts_used,sites_used," +
		"reserve_ok,reserve_nok,conflict_rate")
	for _, p := range pts {
		s.add("%s,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%.4f",
			p.Strategy, p.Hosts, p.Cores, p.Sites, p.N, p.R, p.Seconds,
			p.HostsUsed, p.SitesUsed, p.ReserveOK, p.ReserveNOK, p.ConflictRate)
	}
	return s
}

// FederationSheet is ScaleSheet plus the membership-tier columns: the
// federation width, the mean registration round trip, the mean gossip
// propagation staleness and the membership-plane bytes served during
// each strategy's submission window.
func FederationSheet(pts []ScalePoint) Sheet {
	s := newSheet("strategy,hosts,cores,sites,n,r,sn,seconds,hosts_used,sites_used," +
		"reserve_ok,reserve_nok,conflict_rate,reg_ms,stale_ms,memb_bytes")
	for _, p := range pts {
		s.add("%s,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%.4f,%.3f,%.3f,%d",
			p.Strategy, p.Hosts, p.Cores, p.Sites, p.N, p.R, p.SN, p.Seconds,
			p.HostsUsed, p.SitesUsed, p.ReserveOK, p.ReserveNOK, p.ConflictRate,
			p.RegMS, p.StaleMS, p.MembBytes)
	}
	return s
}
