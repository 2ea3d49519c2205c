// Package mpd implements the MPD daemon (§3.2): the per-host background
// process started by mpiboot. It maintains the peer cache with measured
// latencies, sends alive signals to the supernode, answers latency pings,
// acts as gatekeeper for the local resource (owner's J and P settings via
// the co-located Reservation Service) and coordinates the whole §4.2 job
// submission: booking with overbooking, RS-RS brokering, slist
// extraction, feasibility, allocation-strategy placement, rank
// distribution and the two-phase launch with hash-key validation.
//
// The periodic keep-alive, refresh and ping rounds hang off one chain of
// lifecycle timer events per daemon, with at most one event queued per
// instant: the earliest-queued event at an instant is the only one, and
// it fires that instant's rounds (see lifecycle).
package mpd

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"p2pmpi/internal/latency"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/reservation"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// HostProfile carries the performance characteristics the modelled NAS
// runs consume through Env.Compute.
type HostProfile struct {
	// Cores is the host's core count.
	Cores int
	// CoreGFLOPS is the sustained per-core compute rate.
	CoreGFLOPS float64
	// MemBWGBs is the host memory bandwidth shared by co-located
	// processes.
	MemBWGBs float64
}

// Env is the execution environment handed to each launched MPI process.
type Env struct {
	// Rank, Size, Replica, R locate this process in the application.
	Rank    int
	Size    int
	Replica int
	R       int
	// Slot is this process's table entry; Table the full placement.
	Slot  mpi.Slot
	Table []mpi.Slot
	// HostID names the hosting peer; CoLocated counts this job's
	// processes on this host (drives the memory-contention model).
	HostID    string
	CoLocated int
	// Args are the job arguments.
	Args []string
	// RT and Net bind the process to its runtime and network.
	RT  vtime.Runtime
	Net transport.Network
	// Out collects the process output, returned to the submitter.
	Out bytes.Buffer
	// Profile is the hosting hardware model.
	Profile HostProfile

	comm    *mpi.Comm
	joinErr error
	// kill is armed (non-nil) for preemptable jobs: a KillJob closes it,
	// waking any SleepPreemptible early.
	kill vtime.Mailbox
}

// Comm returns the process's communicator (joined during Prepare).
func (e *Env) Comm() (*mpi.Comm, error) {
	if e.comm == nil && e.joinErr == nil {
		return nil, fmt.Errorf("mpd: communicator not initialized")
	}
	return e.comm, e.joinErr
}

// SleepPreemptible sleeps for d like RT.Sleep, but wakes early with
// ErrPreempted when the job is checkpoint-killed meanwhile (scheduler
// preemption). For non-preemptable jobs — no kill channel armed — it is
// exactly RT.Sleep: same timer, same virtual trajectory.
func (e *Env) SleepPreemptible(d time.Duration) error {
	if e.kill == nil {
		e.RT.Sleep(d)
		return nil
	}
	if _, err := e.kill.PopTimeout(d); err == vtime.ErrTimeout {
		return nil
	}
	return ErrPreempted
}

// Compute advances time as if the process performed the given floating
// point work and memory traffic. Co-located processes of the job share
// the host memory bandwidth, which is the paper's concentrate-strategy
// contention effect; each process has its own core (P never exceeds the
// core count in the experiments), so CPU time is not shared.
func (e *Env) Compute(flops, memBytes float64) {
	if e.Profile.CoreGFLOPS <= 0 || e.Profile.MemBWGBs <= 0 {
		return // no model configured (real runs do real work instead)
	}
	tCPU := flops / (e.Profile.CoreGFLOPS * 1e9)
	tMem := memBytes * float64(e.CoLocated) / (e.Profile.MemBWGBs * 1e9)
	t := tCPU
	if tMem > t {
		t = tMem
	}
	e.RT.Sleep(time.Duration(t * float64(time.Second)))
}

// Program is an MPI application body, one invocation per process.
type Program func(env *Env) error

// Config assembles one peer's daemon settings: the fields that vary
// per peer, plus an embedded *Shared block for everything that is
// identical across a deployment. The split is a memory decision, not a
// cosmetic one: a simulated world holds every daemon in one process,
// and a million hosts each carrying a private copy of the protocol
// timing, program registry and federation list is hundreds of MB of
// identical bytes. Standalone deployments may leave Shared nil — New
// allocates a private defaulted block.
type Config struct {
	// Self identifies this peer; its MPDAddr/RSAddr are the listen
	// addresses.
	Self proto.PeerInfo
	// P and J are the owner preferences (§4.1); Deny lists refused
	// submitters.
	P, J int
	Deny []string
	// Profile describes the hardware for modelled computations.
	Profile HostProfile
	// Seed makes key generation deterministic.
	Seed int64
	// Shared is the deployment-invariant half of the configuration.
	// One block may back every daemon of a world; New treats it as
	// read-only after defaulting (concurrency-safe, see fillDefaults).
	*Shared
}

// Shared is the deployment-invariant half of Config. Its fields are
// promoted into Config, so daemon code reads cfg.PingInterval etc.
// exactly as before the split.
type Shared struct {
	// SupernodeAddr is the bootstrap entry point. The paper's MPD "knows
	// at least one supernode": additional fallbacks can be listed in
	// SupernodeFallbacks and are tried in order when the primary fails.
	SupernodeAddr      string
	SupernodeFallbacks []string
	// Federation lists every supernode of a federated membership tier in
	// shard order. When set (len > 1) it supersedes SupernodeAddr and
	// SupernodeFallbacks: the daemon computes its home shard with
	// overlay.ShardAssign(Self.ID, K), registers there first, and fails
	// over across the remaining shards in a deterministic home-anchored
	// rotation — a foreign shard fosters the peer (Forced register) until
	// the home member answers again.
	Federation []string
	// Programs is the runnable application registry.
	Programs map[string]Program

	// Protocol timing (defaults in parentheses).
	PingInterval    time.Duration // latency probe period (20s)
	AliveInterval   time.Duration // supernode keep-alive period (30s)
	RefreshInterval time.Duration // cache refresh period (60s)
	ReserveTimeout  time.Duration // RS brokering timeout (2s)
	PrepareTimeout  time.Duration // launch phase-one timeout (10s)
	StartTimeout    time.Duration // launch phase-two timeout (10s)

	// Estimator selects how ping samples become the ordering latency
	// (KindLast, the paper's behaviour; windowed kinds keep
	// latency.New's 8 samples).
	Estimator latency.Kind
	// ProcBasePort is the first port used by launched processes (41000):
	// slot g of a job listens on ProcBasePort+g on its host. A real
	// deployment should pick a base below the OS ephemeral port range
	// (32768–60999 on Linux), where outbound connections take their
	// source ports and a slot port can be found already in use. The
	// default stays put because simulated port strings seed the network's
	// jitter streams.
	ProcBasePort int
	// NoBootPing skips the immediate ping round after registration. Boot
	// probing is all-pairs across the deployment, which the large-world
	// harness cannot afford for compute peers whose own latency view is
	// never consulted (only the submitter's ordering matters); the
	// periodic ping loop still runs at PingInterval.
	NoBootPing bool
	// Intern, when set, canonicalizes the PeerInfo values this daemon
	// retains (its identity and its cache's tables) against a
	// deployment-wide interner. Behaviour-neutral; exp worlds share one.
	Intern *overlay.Interner
	// RPCRetries is the robustness layer's re-attempt budget for
	// retryable control-plane RPC failures (supernode register/fetch/
	// alive, launch fan-outs, JobDone retransmits). Zero keeps every
	// exchange single-shot — the paper's behaviour and the default, so
	// fault-free worlds replay identically with the layer compiled in.
	RPCRetries int
	// RPCBackoff is the base pause before the first retry; attempt k
	// waits RPCBackoff·2^(k-1) scaled by seeded jitter in [0.5, 1.5)
	// (default 1s).
	RPCBackoff time.Duration
	// BreakerThreshold consecutive failures against one supernode open
	// a per-member circuit breaker for transport.Breaker's default
	// cooldown: the daemon skips that member in its failover rotation
	// instead of burning a full retry budget against a gray member
	// every round. Zero disables the breaker.
	BreakerThreshold int
	// PeerCacheCap bounds the total peer entries the cache retains
	// before anything reads it (0 = unbounded); see
	// overlay.Cache.SetPendingCap. The harness sets it only for compute
	// peers of multi-thousand-host sweeps whose caches feed no
	// measurement.
	PeerCacheCap int

	// defaultsOnce makes defaulting safe when one block backs daemons
	// constructed from parallel provisioning workers: the first New
	// wins, every later one sees a fully defaulted block.
	defaultsOnce sync.Once
}

func (c *Config) fillDefaults() {
	if c.Shared == nil {
		c.Shared = &Shared{}
	}
	c.Shared.fillDefaults()
	if c.J <= 0 {
		c.J = 1
	}
}

func (s *Shared) fillDefaults() {
	s.defaultsOnce.Do(func() {
		if s.PingInterval <= 0 {
			s.PingInterval = 20 * time.Second
		}
		if s.AliveInterval <= 0 {
			s.AliveInterval = 30 * time.Second
		}
		if s.RefreshInterval <= 0 {
			s.RefreshInterval = 60 * time.Second
		}
		if s.ReserveTimeout <= 0 {
			s.ReserveTimeout = 2 * time.Second
		}
		if s.PrepareTimeout <= 0 {
			s.PrepareTimeout = 10 * time.Second
		}
		if s.StartTimeout <= 0 {
			s.StartTimeout = 10 * time.Second
		}
		if s.Estimator == "" {
			s.Estimator = latency.KindLast
		}
		if s.ProcBasePort <= 0 {
			s.ProcBasePort = 41000
		}
	})
}

// MPD is one peer's daemon.
type MPD struct {
	rt  vtime.Runtime
	net transport.Network
	cfg Config

	cache *overlay.Cache
	rs    *reservation.Service

	mu          sync.Mutex
	ln          transport.Listener
	closed      bool
	jobs        map[string]*localJob     // by key (hosting side), lazy
	pendingDone map[string]vtime.Mailbox // by jobID (submitter side), lazy
	// rng is built on first draw. An eager rand.Rand is ~5 KB of state
	// (the biggest single item on the idle daemon's footprint) and an
	// idle peer never draws — laziness changes nothing observable, the
	// same seed produces the same stream whenever it is first used.
	rng    *rand.Rand
	lc     lifecycle
	tickFn func() // m.lifecycleTick, bound once so re-arming never allocates a closure
	stats  Stats
	// brk holds one circuit breaker per supernode address (lazy; nil
	// until BreakerThreshold > 0 records an outcome). retrySeq holds
	// one SplitMix64 jitter stream per retry target, separate from rng
	// so enabling retries never perturbs the nonce/key draws — and
	// per-target so membership-plane retries (whose count depends on
	// the federation width) cannot shift the jitter that job-plane
	// retries to compute hosts draw.
	brk      map[string]*transport.Breaker
	retrySeq map[string]*uint64
}

// lifecycle is the daemon's periodic-work state: a chain of timer events
// instead of three parked loop goroutines per host. Each round runs
// inside its timer event as a chain of Calls, and its final continuation
// re-arms the deadline — the same drift semantics as the old
// sleep-then-act loops, so virtual trajectories are unchanged. Guarded
// by MPD.mu.
//
// Invariant: at most one lifecycle event is queued per instant, and it
// sits at a deadline's instant. The aliveQ/refreshQ/pingQ flags record
// that the matching deadline has its event queued; arming never queues a
// second one there, so the earliest-queued event at an instant is the
// only one and fires that instant's rounds. (A round that completes and
// arms an earlier deadline leaves the later event queued; the tick at the
// earlier deadline must not queue a twin of it, or every round would
// start a chain of empty ticks that never ends.)
type lifecycle struct {
	aliveAt, refreshAt, pingAt time.Time // absolute next deadlines (zero: round in flight)
	aliveTick                  int       // counts alive rounds for the re-register cadence
	aliveQ, refreshQ, pingQ    bool      // an event is queued at the deadline's instant
}

// Stats counts protocol events for tests and reporting.
type Stats struct {
	PingsSent     int64
	PingsAnswered int64
	JobsHosted    int64
	JobsSubmitted int64
	// Registrations counts successful supernode registrations and
	// RegNanos their summed exchange round-trip time (the federation
	// scale sweeps report the mean).
	Registrations int64
	RegNanos      int64
	// SNFailovers counts registrations that landed on a non-home shard
	// (fostered); SNRedirects counts ShardRedirect answers followed.
	SNFailovers int64
	SNRedirects int64
	// RPCRetries counts re-attempts the robustness layer issued (extra
	// tries beyond each exchange's first); BreakerSkips counts supernode
	// exchanges skipped because the member's circuit breaker was open.
	RPCRetries   int64
	BreakerSkips int64
}

// localJob is one hosted application on this peer.
type localJob struct {
	key     string
	jobID   string
	prep    *proto.Prepare
	program Program
	envs    []*Env
	started bool
	// aborted is set by Crash: the host died mid-run, so the job must
	// neither report completion nor touch the (already reset) RS.
	aborted bool
}

// New creates an MPD daemon (not yet started).
func New(rt vtime.Runtime, net transport.Network, cfg Config) *MPD {
	cfg.fillDefaults()
	// Registering self's canonical value up front means every wire copy
	// of this host's info — in supernode tables and other peers' caches
	// — dedupes against it.
	cfg.Self = cfg.Intern.PeerInfo(cfg.Self)
	m := &MPD{
		rt:    rt,
		net:   net,
		cfg:   cfg,
		cache: overlay.NewCache(cfg.Self.ID, cfg.Estimator, 0),
	}
	m.cache.SetInterner(cfg.Intern)
	if cfg.PeerCacheCap > 0 {
		m.cache.SetPendingCap(cfg.PeerCacheCap)
	}
	m.rs = reservation.New(rt, net, reservation.Config{
		Addr: cfg.Self.RSAddr,
		J:    cfg.J,
		P:    cfg.P,
		Deny: cfg.Deny,
	})
	return m
}

// Cache exposes the peer cache (tests and experiment harness).
func (m *MPD) Cache() *overlay.Cache { return m.cache }

// RS exposes the co-located reservation service (tests).
func (m *MPD) RS() *reservation.Service { return m.rs }

// Stats returns a copy of the daemon counters.
func (m *MPD) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Start boots the daemon: RS, MPD listener, supernode registration and
// the periodic loops (mpiboot's effect, §3.2).
func (m *MPD) Start() error {
	if err := m.rs.Start(); err != nil {
		return fmt.Errorf("mpd: start rs: %w", err)
	}
	ln, err := m.net.Listen(m.cfg.Self.MPDAddr)
	if err != nil {
		m.rs.Close()
		return fmt.Errorf("mpd: listen: %w", err)
	}
	m.mu.Lock()
	m.ln = ln
	m.mu.Unlock()

	transport.Serve(ln, m.serve)
	// Periodic work runs on the lifecycle timer chain: one pending
	// event per daemon instead of three sleeping goroutines.
	m.tickFn = m.lifecycleTick
	now := m.rt.Now()
	m.mu.Lock()
	m.lc.aliveAt = now.Add(m.cfg.AliveInterval)
	m.lc.refreshAt = now.Add(m.cfg.RefreshInterval)
	m.lc.pingAt = now.Add(m.cfg.PingInterval)
	m.lc.aliveTick = 1
	m.armTimerLocked()
	m.mu.Unlock()
	// Register, then measure latencies right away. Both are Call chains,
	// so Start returns with the first request on the wire.
	m.registerAndUpdate(func() {
		if !m.cfg.NoBootPing {
			m.pingRound(func() {})
		}
	})
	return nil
}

// due reports whether a deadline is set and has arrived.
func due(t, now time.Time) bool { return !t.IsZero() && !t.After(now) }

// armTimerLocked queues the lifecycle event for the earliest armed
// deadline, unless one is already queued at that instant (see lifecycle).
// Zero deadlines mean the round is in flight (it re-arms on completion).
func (m *MPD) armTimerLocked() {
	lc := &m.lc
	next := lc.aliveAt
	if !lc.refreshAt.IsZero() && (next.IsZero() || lc.refreshAt.Before(next)) {
		next = lc.refreshAt
	}
	if !lc.pingAt.IsZero() && (next.IsZero() || lc.pingAt.Before(next)) {
		next = lc.pingAt
	}
	if next.IsZero() || (lc.aliveQ && lc.aliveAt.Equal(next)) ||
		(lc.refreshQ && lc.refreshAt.Equal(next)) || (lc.pingQ && lc.pingAt.Equal(next)) {
		return
	}
	lc.aliveQ = lc.aliveQ || lc.aliveAt.Equal(next)
	lc.refreshQ = lc.refreshQ || lc.refreshAt.Equal(next)
	lc.pingQ = lc.pingQ || lc.pingAt.Equal(next)
	m.rt.Schedule(next.Sub(m.rt.Now()), m.tickFn)
}

// lifecycleTick fires every due round, inline: each round is a chain of
// Calls whose final continuation re-arms its deadline (rearm), so no
// round parks and none needs an actor. Due rounds start in the loops'
// historical order — alive, refresh, ping — which is the event order the
// old per-loop sleeps produced when deadlines collided.
func (m *MPD) lifecycleTick() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	doAlive, doRefresh, doPing := false, false, false
	aliveTick := 0
	if due(m.lc.aliveAt, now) {
		m.lc.aliveAt, m.lc.aliveQ = time.Time{}, false
		aliveTick = m.lc.aliveTick
		m.lc.aliveTick++
		doAlive = true
	}
	if due(m.lc.refreshAt, now) {
		m.lc.refreshAt, m.lc.refreshQ = time.Time{}, false
		doRefresh = true
	}
	if due(m.lc.pingAt, now) {
		m.lc.pingAt, m.lc.pingQ = time.Time{}, false
		doPing = true
	}
	m.armTimerLocked()
	m.mu.Unlock()
	if doAlive {
		// Every few ticks a full re-registration instead of a bare
		// keep-alive: it repairs the membership after a partition longer
		// than the supernode's TTL (Alive alone cannot resurrect an
		// expired entry because it carries only the peer ID).
		rearm := func() { m.rearm(&m.lc.aliveAt, m.cfg.AliveInterval) }
		if aliveTick%5 == 0 {
			m.registerAndUpdate(rearm) // free host-list refresh rides along
		} else {
			m.aliveAny(rearm)
		}
	}
	if doRefresh {
		m.fetchAndUpdate(func(error) { m.rearm(&m.lc.refreshAt, m.cfg.RefreshInterval) })
	}
	if doPing {
		m.pingRound(func() { m.rearm(&m.lc.pingAt, m.cfg.PingInterval) })
	}
}

// rearm sets a finished round's next deadline one interval from now and
// queues its lifecycle event.
func (m *MPD) rearm(at *time.Time, every time.Duration) {
	m.mu.Lock()
	if !m.closed {
		*at = m.rt.Now().Add(every)
		m.armTimerLocked()
	}
	m.mu.Unlock()
}

// Close stops the daemon. Idempotent.
func (m *MPD) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ln := m.ln
	for _, mb := range m.pendingDone {
		mb.Close()
	}
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	m.rs.Close()
}

// Crash models the host dying under fault injection: every hosted job
// is dropped without a completion report (the submitter must detect the
// silence), and the co-located RS releases all held and running
// reservations as failures — a crash is not a conflict, so the rejected
// counter that feeds conflict rates stays untouched. The daemon object
// itself stays alive: the simulated network already drops the host's
// traffic, and when churn revives the host its listeners answer again,
// modelling a reboot that auto-restarts the middleware (call Reannounce
// to rejoin the overlay promptly).
func (m *MPD) Crash() {
	m.mu.Lock()
	var unstarted []*localJob
	for key, job := range m.jobs {
		job.aborted = true
		if !job.started {
			unstarted = append(unstarted, job)
		}
		delete(m.jobs, key)
	}
	m.mu.Unlock()
	// Started jobs free their MPI endpoints when each process actor
	// finishes; prepared-but-unstarted jobs have no actors, so their
	// pre-bound listeners must be closed here or the ports stay taken
	// across the reboot and every later launch on them fails.
	for _, job := range unstarted {
		for _, e := range job.envs {
			if e.comm != nil {
				e.comm.Close()
			}
		}
	}
	m.rs.FailAll()
}

// Reannounce re-registers with the supernode — the revival path of
// churn. Without it a rebooted host would stay invisible until the
// alive round's next full re-registration tick.
func (m *MPD) Reannounce() {
	if !m.isClosed() {
		m.registerAndUpdate(func() {})
	}
}

func (m *MPD) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// supernode returns entry i of the failover order of supernode
// addresses, primary (or home shard) first, and false past its end. In
// a federation the order is the home-anchored rotation Federation[home],
// Federation[home+1], ... — deterministic per peer, so a failed-over
// peer always fosters at the same member and ranked views stay
// replayable. It is computed per step, not listed per RPC: a walk
// rarely gets past its first entry.
func (m *MPD) supernode(i int) (string, bool) {
	if k := len(m.cfg.Federation); k > 1 {
		if i >= k {
			return "", false
		}
		return m.cfg.Federation[(overlay.ShardAssign(m.cfg.Self.ID, k)+i)%k], true
	}
	if i == 0 {
		return m.cfg.SupernodeAddr, true
	}
	if i <= len(m.cfg.SupernodeFallbacks) {
		return m.cfg.SupernodeFallbacks[i-1], true
	}
	return "", false
}

// --- RPC robustness: seeded retries and per-supernode breakers ---

// callRetry is transport.Call under the daemon's retry policy, as a
// state machine: a retryable failure (transport.Retryable — timeouts
// and unreachable listeners, never "peer gone") of attempt k (0-based;
// callers pass 0) schedules attempt k+1 after an exponential backoff
// with seeded jitter, up to RPCRetries re-attempts, and nobody sleeps
// meanwhile; done gets the last attempt's outcome, under Call's rules
// (it must not block). With RPCRetries == 0 it is exactly Call — no
// draws, no events — so fault-free trajectories are untouched.
func (m *MPD) callRetry(addr string, req transport.Message, timeout time.Duration, k int, done func(transport.Message, error)) {
	transport.Call(m.net, addr, req, timeout, func(reply transport.Message, err error) {
		if k >= m.cfg.RPCRetries || !transport.Retryable(err) {
			done(reply, err)
			return
		}
		m.rt.Schedule(m.retryDelay(addr, k+1), func() {
			m.mu.Lock()
			m.stats.RPCRetries++
			m.mu.Unlock()
			m.callRetry(addr, req, timeout, k+1, done)
		})
	})
}

// retryDelay draws the backoff before re-attempt k (1-based) of an
// exchange with addr: RPCBackoff·2^(k-1) scaled by uniform jitter in
// [0.5, 1.5). Each target address owns an independent SplitMix64
// stream seeded from (daemon seed, addr), so how often one target
// needs retries never moves the jitter another target's retries draw —
// the property that keeps job-plane trajectories identical whatever
// the membership tier's shape.
func (m *MPD) retryDelay(addr string, k int) time.Duration {
	m.mu.Lock()
	if m.retrySeq == nil {
		m.retrySeq = make(map[string]*uint64)
	}
	// addr may be a view into a decoded frame (a Prepare's submitter
	// address), and assigning through a string key re-stores the key:
	// the entry is written once, with an owned copy, and advanced in place.
	st := m.retrySeq[addr]
	if st == nil {
		h := fnv.New64a()
		h.Write([]byte(addr))
		st = new(uint64)
		*st = uint64(m.cfg.Seed) ^ h.Sum64() ^ 0x72747279 // "rtry"
		m.retrySeq[strings.Clone(addr)] = st
	}
	var u float64
	*st, u = splitmixStep(*st)
	m.mu.Unlock()
	base := m.cfg.RPCBackoff
	if base <= 0 {
		base = time.Second
	}
	return time.Duration(float64(base<<uint(k-1)) * (0.5 + u))
}

// splitmixStep advances a SplitMix64 state and returns the new state
// plus a uniform draw in [0, 1).
func splitmixStep(x uint64) (uint64, float64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return x, float64(z>>11) / (1 << 53)
}

// snAllow consults the supernode's circuit breaker; a skipped member
// is counted so experiments can meter how much probing the breaker
// saved. Always true when the breaker is disabled.
func (m *MPD) snAllow(sn string) bool {
	if m.cfg.BreakerThreshold <= 0 {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.brkLocked(sn).Allow(m.rt.Now()) {
		return true
	}
	m.stats.BreakerSkips++
	return false
}

// snRecord feeds one supernode exchange outcome into its breaker.
func (m *MPD) snRecord(sn string, err error) {
	if m.cfg.BreakerThreshold <= 0 {
		return
	}
	m.mu.Lock()
	m.brkLocked(sn).Record(m.rt.Now(), err)
	m.mu.Unlock()
}

func (m *MPD) brkLocked(sn string) *transport.Breaker {
	if m.brk == nil {
		m.brk = make(map[string]*transport.Breaker)
	}
	b := m.brk[sn]
	if b == nil {
		b = &transport.Breaker{Threshold: m.cfg.BreakerThreshold}
		m.brk[sn] = b
	}
	return b
}

// mergeReply merges a raw PeerList reply into the cache straight from
// the frame (overlay.Cache.UpdateFrame, or UpdateShared for the
// supernode's shared whole-table frame) and releases it. A corrupt reply
// changes nothing and fails over.
func (m *MPD) mergeReply(reply transport.Message) error {
	var err error
	if reply.IsShared() {
		err = m.cache.UpdateShared(reply.Payload)
	} else {
		err = m.cache.UpdateFrame(reply.Payload)
	}
	reply.Release()
	return err
}

// viaSupernodes walks the failover order of supernode(i), skipping the
// members whose breaker is open: try runs against one member and calls
// next with its error to move on to the following one; past the last,
// end gets the last error (nil when every member was skipped). A try
// that succeeds simply does not call next. Each step is issued from the
// previous one's Call continuation, so the walk never parks.
func (m *MPD) viaSupernodes(try func(i int, sn string, next func(error)), end func(error)) {
	var step func(i int, err error)
	step = func(i int, err error) {
		for ; ; i++ {
			sn, ok := m.supernode(i)
			if !ok {
				break
			}
			if m.snAllow(sn) {
				try(i, sn, func(err error) { step(i+1, err) })
				return
			}
		}
		end(err)
	}
	step(0, nil)
}

// registerAndUpdate registers with the first supernode that delivers a
// decodable host list, merges it into the cache and runs then. A
// supernode that answers with garbage counts as failed: the walk falls
// through to the configured fallbacks (the federation's home-anchored
// rotation), like the transport-level failures do. In a federation the
// first attempt is the peer's home shard; later attempts are forced
// (foster) ones. A ShardRedirect answer — the home shard moved, e.g. the
// peer computed it against a stale federation size — is followed once,
// with a second Call issued from the first one's continuation.
func (m *MPD) registerAndUpdate(then func()) {
	federated := len(m.cfg.Federation) > 1
	register := func(forced bool) transport.Message {
		return transport.Message{Payload: proto.MustMarshal(&proto.Register{Peer: m.cfg.Self, Forced: forced})}
	}
	m.viaSupernodes(func(i int, sn string, next func(error)) {
		forced := federated && i > 0
		t0 := m.rt.Now()
		merge := func(reply transport.Message, err error) {
			if err == nil {
				rtt := m.rt.Now().Sub(t0)
				if err = m.mergeReply(reply); err == nil {
					m.mu.Lock()
					m.stats.Registrations++
					m.stats.RegNanos += int64(rtt)
					if forced {
						m.stats.SNFailovers++
					}
					m.mu.Unlock()
					then()
					return
				}
			}
			next(err)
		}
		m.callRetry(sn, register(forced), m.cfg.ReserveTimeout, 0, func(reply transport.Message, err error) {
			m.snRecord(sn, err)
			if err != nil || proto.Peek(reply.Payload) != proto.TShardRedirect {
				merge(reply, err)
				return
			}
			var rd proto.ShardRedirect
			err = proto.DecodeInto(reply.Payload, &rd)
			reply.Release()
			if err != nil || rd.Addr == "" || rd.Addr == sn {
				next(fmt.Errorf("mpd: unusable shard redirect from %s", sn))
				return
			}
			m.mu.Lock()
			m.stats.SNRedirects++
			m.mu.Unlock()
			transport.Call(m.net, rd.Addr, register(false), m.cfg.ReserveTimeout, merge)
		})
	}, func(error) { then() })
}

// fetchAndUpdate refreshes the cache from the first supernode that
// delivers a decodable host list (see registerAndUpdate), then hands
// then the outcome.
func (m *MPD) fetchAndUpdate(then func(error)) {
	m.viaSupernodes(func(_ int, sn string, next func(error)) {
		m.callRetry(sn, transport.Message{Payload: proto.MustMarshal(&proto.FetchPeers{})}, m.cfg.ReserveTimeout, 0,
			func(reply transport.Message, err error) {
				m.snRecord(sn, err)
				if err == nil {
					if err = m.mergeReply(reply); err == nil {
						then(nil)
						return
					}
				}
				next(err)
			})
	}, then)
}

// aliveAny refreshes the last-seen stamp at the first answering
// supernode, then runs then; on failure it falls through the configured
// list so the peer stays listed somewhere while the primary is down. An
// answering supernode that does not actually list the peer (its entry
// expired, or it was fostered elsewhere and the home shard just revived)
// chains into an immediate re-registration instead of refreshing a ghost
// until the next full re-register tick.
func (m *MPD) aliveAny(then func()) {
	m.viaSupernodes(func(_ int, sn string, next func(error)) {
		m.callRetry(sn, transport.Message{Payload: proto.MustMarshal(&proto.Alive{ID: m.cfg.Self.ID})}, m.cfg.ReserveTimeout, 0,
			func(reply transport.Message, err error) {
				var ack proto.AliveAck
				if err == nil {
					err = proto.DecodeInto(reply.Payload, &ack)
					reply.Release()
				}
				m.snRecord(sn, err)
				switch {
				case err != nil:
					next(err)
				case !ack.Known:
					m.registerAndUpdate(then)
				default:
					then()
				}
			})
	}, func(error) { then() })
}

// pingRound measures the RTT to every cached peer concurrently using the
// application-level echo of §4.1 (never ICMP), and runs then once the
// last answer (or timeout) is in. A ping costs one allocation of its
// own, its continuation: the requests share one buffer per round,
// which Call sends from once each dial ends.
func (m *MPD) pingRound(then func()) {
	ids := m.cache.IDs()
	// One count per ping plus one for the loop itself, so then runs after
	// the last ping was issued even when every answer comes back inline.
	r := &pingWait{left: len(ids) + 1, then: then}
	reqs := make([]byte, len(ids)*pingFrameLen)
	for _, id := range ids {
		info, ok := m.cache.Peer(id)
		if !ok {
			r.answered()
			continue
		}
		nonce := m.nextNonce()
		t0 := m.rt.Now()
		// The capacity bound makes the encode stay in this ping's slot.
		req, _ := proto.AppendMarshal(reqs[:0:pingFrameLen], &proto.Ping{Nonce: nonce})
		reqs = reqs[pingFrameLen:]
		transport.Call(m.net, info.MPDAddr, transport.Message{Payload: req},
			m.cfg.ReserveTimeout, func(reply transport.Message, err error) {
				if err == nil {
					var pong proto.Pong
					err = proto.DecodeInto(reply.Payload, &pong)
					reply.Release()
					if err == nil && pong.Nonce == nonce {
						m.cache.Observe(id, m.rt.Now().Sub(t0))
					}
				}
				r.answered()
			})
		m.mu.Lock()
		m.stats.PingsSent++
		m.mu.Unlock()
	}
	r.answered()
}

// pingFrameLen is the encoded size of a Ping: type byte and nonce.
const pingFrameLen = 9

// pingWait counts a ping round's outstanding answers.
type pingWait struct {
	mu   sync.Mutex
	left int
	then func()
}

func (r *pingWait) answered() {
	r.mu.Lock()
	r.left--
	last := r.left == 0
	r.mu.Unlock()
	if last {
		r.then()
	}
}

// rngLocked returns the daemon's seeded generator, building it on first
// draw (m.mu must be held). The same seed yields the same stream
// whenever it is first used, so laziness is invisible to replay.
func (m *MPD) rngLocked() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.cfg.Seed ^ int64(len(m.cfg.Self.ID))))
	}
	return m.rng
}

func (m *MPD) nextNonce() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rngLocked().Uint64()
}

func (m *MPD) newKey() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	rng := m.rngLocked()
	return fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
}
