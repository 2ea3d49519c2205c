// Package mpd implements the MPD daemon (§3.2): the per-host background
// process started by mpiboot. It maintains the peer cache with measured
// latencies, sends alive signals to the supernode, answers latency pings,
// acts as gatekeeper for the local resource (owner's J and P settings via
// the co-located Reservation Service) and coordinates the whole §4.2 job
// submission: booking with overbooking, RS-RS brokering, slist
// extraction, feasibility, allocation-strategy placement, rank
// distribution and the two-phase launch with hash-key validation.
package mpd

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
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
	algs    mpi.Algorithms
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

	// Overbook inflates the booking fan-out to anticipate unavailable
	// hosts (1.2).
	Overbook float64
	// Estimator selects how ping samples become the ordering latency
	// (KindLast, the paper's behaviour).
	Estimator       latency.Kind
	EstimatorWindow int
	// ProcBasePort is the first port used by launched processes (41000).
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
	// a per-member circuit breaker for BreakerCooldown (default 30s):
	// the daemon skips that member in its failover rotation instead of
	// burning a full retry budget against a gray member every round.
	// Zero disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
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
		if s.Overbook <= 0 {
			s.Overbook = 1.2
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
	retrySeq map[string]uint64
}

// lifecycle is the daemon's periodic-work state: one pending timer
// event instead of three parked loop goroutines per host. Each round
// still runs in its own short-lived actor; the timer chain only decides
// when to spawn them. Deadlines are re-armed by the round that just
// completed — the same drift semantics as the old sleep-then-act loops,
// so virtual trajectories are unchanged. Guarded by MPD.mu.
type lifecycle struct {
	aliveAt, refreshAt, pingAt time.Time // absolute next deadlines
	aliveTick                  int       // counts alive rounds for the re-register cadence
	timerAt                    time.Time // earliest pending timer target (zero: none)
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
		cache: overlay.NewCache(cfg.Self.ID, cfg.Estimator, cfg.EstimatorWindow),
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

	transport.Serve(m.rt, ln, "mpd.conn."+m.cfg.Self.ID, func(c transport.Conn) transport.FrameHandler {
		return (&connServer{m: m, c: c}).serve
	})
	m.rt.Go("mpd.boot."+m.cfg.Self.ID, func() {
		m.registerAndUpdate()
		if !m.cfg.NoBootPing {
			m.pingRound() // measure latencies right away
		}
	})
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
	return nil
}

// due reports whether a deadline is set and has arrived.
func due(t, now time.Time) bool { return !t.IsZero() && !t.After(now) }

// armTimerLocked schedules the lifecycle timer for the earliest armed
// deadline, unless a pending timer already fires at or before it.
// Zero deadlines mean the round is in flight (it re-arms on completion).
func (m *MPD) armTimerLocked() {
	next := m.lc.aliveAt
	if !m.lc.refreshAt.IsZero() && (next.IsZero() || m.lc.refreshAt.Before(next)) {
		next = m.lc.refreshAt
	}
	if !m.lc.pingAt.IsZero() && (next.IsZero() || m.lc.pingAt.Before(next)) {
		next = m.lc.pingAt
	}
	if next.IsZero() {
		return
	}
	if !m.lc.timerAt.IsZero() && !m.lc.timerAt.After(next) {
		return // the pending timer already covers it
	}
	m.lc.timerAt = next
	m.rt.Schedule(next.Sub(m.rt.Now()), m.tickFn)
}

// lifecycleTick fires every due round. It runs in event context (no
// actor), so it only spawns: each round executes in its own short-lived
// actor, named like the dedicated loop goroutines it replaced. Due
// rounds fire in the loops' historical start order — alive, refresh,
// ping — which is the event order the old per-loop sleeps produced when
// deadlines collided.
func (m *MPD) lifecycleTick() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.lc.timerAt = time.Time{}
	now := m.rt.Now()
	doAlive, doRefresh, doPing := false, false, false
	aliveTick := 0
	if due(m.lc.aliveAt, now) {
		m.lc.aliveAt = time.Time{}
		aliveTick = m.lc.aliveTick
		m.lc.aliveTick++
		doAlive = true
	}
	if due(m.lc.refreshAt, now) {
		m.lc.refreshAt = time.Time{}
		doRefresh = true
	}
	if due(m.lc.pingAt, now) {
		m.lc.pingAt = time.Time{}
		doPing = true
	}
	m.armTimerLocked()
	m.mu.Unlock()
	if doAlive {
		m.rt.Go("mpd.alive."+m.cfg.Self.ID, func() { m.aliveRound(aliveTick) })
	}
	if doRefresh {
		m.rt.Go("mpd.refresh."+m.cfg.Self.ID, m.refreshRound)
	}
	if doPing {
		m.rt.Go("mpd.ping."+m.cfg.Self.ID, m.pingRoundChained)
	}
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

// Reannounce re-registers with the supernode from a fresh actor — the
// revival path of churn. Without it a rebooted host would stay invisible
// until the alive loop's next full re-registration tick.
func (m *MPD) Reannounce() {
	m.rt.Go("mpd.reannounce."+m.cfg.Self.ID, func() {
		if m.isClosed() {
			return
		}
		m.registerAndUpdate()
	})
}

func (m *MPD) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// aliveRound is one keep-alive tick. Every few ticks, a full
// re-registration instead of a bare keep-alive: it repairs the
// membership after a partition longer than the supernode's TTL (Alive
// alone cannot resurrect an expired entry because it carries only the
// peer ID).
func (m *MPD) aliveRound(tick int) {
	if m.isClosed() {
		return
	}
	if tick%5 == 0 {
		m.registerAndUpdate() // free host-list refresh rides along
	} else {
		m.aliveAny()
	}
	m.mu.Lock()
	if !m.closed {
		m.lc.aliveAt = m.rt.Now().Add(m.cfg.AliveInterval)
		m.armTimerLocked()
	}
	m.mu.Unlock()
}

// refreshRound is one cache refresh.
func (m *MPD) refreshRound() {
	if m.isClosed() {
		return
	}
	m.fetchAndUpdate()
	m.mu.Lock()
	if !m.closed {
		m.lc.refreshAt = m.rt.Now().Add(m.cfg.RefreshInterval)
		m.armTimerLocked()
	}
	m.mu.Unlock()
}

// pingRoundChained is the periodic latency probe round.
func (m *MPD) pingRoundChained() {
	if m.isClosed() {
		return
	}
	m.pingRound()
	m.mu.Lock()
	if !m.closed {
		m.lc.pingAt = m.rt.Now().Add(m.cfg.PingInterval)
		m.armTimerLocked()
	}
	m.mu.Unlock()
}

// supernodes lists the supernode addresses to try, primary (or home
// shard) first. In a federation the order is the home-anchored rotation
// Federation[home], Federation[home+1], ... — deterministic per peer,
// so a failed-over peer always fosters at the same member and ranked
// views stay replayable.
func (m *MPD) supernodes() []string {
	if k := len(m.cfg.Federation); k > 1 {
		home := overlay.ShardAssign(m.cfg.Self.ID, k)
		out := make([]string, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, m.cfg.Federation[(home+i)%k])
		}
		return out
	}
	return append([]string{m.cfg.SupernodeAddr}, m.cfg.SupernodeFallbacks...)
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
	transport.Call(m.rt, m.net, addr, req, timeout, func(reply transport.Message, err error) {
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

// requestRetry is callRetry plus one park, for the scripts that are
// sequential anyway (the supernode exchanges).
func (m *MPD) requestRetry(addr string, msg any, timeout time.Duration) (reply transport.Message, err error) {
	f := newFanIn(m.rt, 1)
	m.callRetry(addr, transport.Message{Payload: proto.MustMarshal(msg)}, timeout, 0,
		func(r transport.Message, e error) {
			reply, err = r, e
			f.done(false)
		})
	f.wait()
	return reply, err
}

// fanIn is the receiving end of a fan-out of Calls: a countdown their
// continuations report to, which wakes the one blocked caller once —
// when the last answer is in, or at the first one that aborts the wait.
// The continuations run in delivery context on simnet and on a
// goroutine each over TCP, hence the lock; state they share beside the
// count is theirs to guard.
type fanIn struct {
	mu   sync.Mutex
	left int
	mb   vtime.Mailbox
}

func newFanIn(rt vtime.Runtime, n int) *fanIn {
	f := &fanIn{left: n, mb: rt.NewMailbox()}
	if n == 0 {
		f.mb.Push(true)
	}
	return f
}

// done counts one answer in; abort writes the outstanding ones off.
func (f *fanIn) done(abort bool) {
	f.mu.Lock()
	wake := f.left > 0 && (abort || f.left == 1)
	f.left--
	if wake {
		f.left = 0 // later answers find nobody to wake
	}
	f.mu.Unlock()
	if wake {
		f.mb.Push(!abort)
	}
}

// wait parks the caller until the countdown ends and reports whether
// every answer came in (false: one aborted it).
func (f *fanIn) wait() bool {
	v, _ := f.mb.Pop()
	return v.(bool)
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
		m.retrySeq = make(map[string]uint64)
	}
	st, ok := m.retrySeq[addr]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(addr))
		st = uint64(m.cfg.Seed) ^ h.Sum64() ^ 0x72747279 // "rtry"
	}
	st, u := splitmixStep(st)
	m.retrySeq[addr] = st
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
		b = &transport.Breaker{Threshold: m.cfg.BreakerThreshold, Cooldown: m.cfg.BreakerCooldown}
		m.brk[sn] = b
	}
	return b
}

// peerListPool recycles the scratch slices host-list replies decode
// into: a refresh on a multi-thousand-host world is an O(world) reply,
// and every daemon refreshes, so per-reply slices used to be a top
// allocation source. Each in-flight refresh owns its pooled slice
// exclusively from Get to Put; the cache copies what it keeps, so
// nothing aliases the scratch after the merge.
var peerListPool = sync.Pool{New: func() any { return new([]proto.PeerInfo) }}

// mergeReply decodes a raw PeerList reply into pooled scratch — only the
// leading entries the cache will keep; the rest is validated, so a
// corrupt reply still fails over — merges it into the cache and
// releases the frame. The scratch is borrowed
// only for this park-free window — not across the network round trip —
// so however many refreshes are in flight at once, only the handful
// actually decoding at this instant hold a slice.
func (m *MPD) mergeReply(reply transport.Message) error {
	sp := peerListPool.Get().(*[]proto.PeerInfo)
	peers, err := proto.UnmarshalPeerListLimited(reply.Payload, (*sp)[:0], m.cache.UpdateKeeps())
	reply.Release()
	if err == nil {
		m.cache.Update(peers)
	}
	*sp = peers[:0]
	peerListPool.Put(sp)
	return err
}

// registerAndUpdate registers with the first supernode that delivers a
// decodable host list and merges it into the cache. A supernode that
// answers with garbage counts as failed: the loop falls through to the
// configured fallbacks (the federation's home-anchored rotation), like
// the transport-level failures do. In a federation the first attempt is
// the peer's home shard; later attempts are forced (foster) ones. A
// ShardRedirect answer — the home shard moved, e.g. the peer computed
// it against a stale federation size — is followed once.
func (m *MPD) registerAndUpdate() error {
	var lastErr error
	federated := len(m.cfg.Federation) > 1
	for i, sn := range m.supernodes() {
		if !m.snAllow(sn) {
			continue
		}
		forced := federated && i > 0
		t0 := m.rt.Now()
		reply, err := m.requestRetry(sn, &proto.Register{Peer: m.cfg.Self, Forced: forced}, m.cfg.ReserveTimeout)
		m.snRecord(sn, err)
		if err == nil && proto.Peek(reply.Payload) == proto.TShardRedirect {
			var rd proto.ShardRedirect
			decErr := proto.DecodeInto(reply.Payload, &rd)
			reply.Release()
			if decErr == nil && rd.Addr != "" && rd.Addr != sn {
				m.mu.Lock()
				m.stats.SNRedirects++
				m.mu.Unlock()
				reply, err = overlay.RegisterRaw(m.net, rd.Addr, m.cfg.Self, false, m.cfg.ReserveTimeout)
			} else {
				err = fmt.Errorf("mpd: unusable shard redirect from %s", sn)
			}
		}
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
				return nil
			}
		}
		lastErr = err
	}
	return lastErr
}

// fetchAndUpdate refreshes the cache from the first supernode that
// delivers a decodable host list (see registerAndUpdate).
func (m *MPD) fetchAndUpdate() error {
	var lastErr error
	for _, sn := range m.supernodes() {
		if !m.snAllow(sn) {
			continue
		}
		reply, err := m.requestRetry(sn, &proto.FetchPeers{}, m.cfg.ReserveTimeout)
		m.snRecord(sn, err)
		if err == nil {
			if err = m.mergeReply(reply); err == nil {
				return nil
			}
		}
		lastErr = err
	}
	return lastErr
}

// aliveAny refreshes the last-seen stamp at the first answering
// supernode; on failure it falls through the configured list so the
// peer stays listed somewhere while the primary is down. An answering
// supernode that does not actually list the peer (its entry expired, or
// it was fostered elsewhere and the home shard just revived) triggers
// an immediate re-registration instead of refreshing a ghost until the
// next full re-register tick.
func (m *MPD) aliveAny() {
	for _, sn := range m.supernodes() {
		if !m.snAllow(sn) {
			continue
		}
		reply, err := m.requestRetry(sn, &proto.Alive{ID: m.cfg.Self.ID}, m.cfg.ReserveTimeout)
		var ack proto.AliveAck
		if err == nil {
			err = proto.DecodeInto(reply.Payload, &ack)
			reply.Release()
		}
		m.snRecord(sn, err)
		if err != nil {
			continue
		}
		if !ack.Known {
			m.registerAndUpdate()
		}
		return
	}
}

// pingRound measures the RTT to every cached peer concurrently using the
// application-level echo of §4.1 (never ICMP).
func (m *MPD) pingRound() {
	ids := m.cache.IDs()
	if len(ids) == 0 {
		return
	}
	round := newFanIn(m.rt, len(ids))
	for _, id := range ids {
		id := id
		info, ok := m.cache.Peer(id)
		if !ok {
			round.done(false)
			continue
		}
		nonce := m.nextNonce()
		t0 := m.rt.Now()
		transport.Call(m.rt, m.net, info.MPDAddr,
			transport.Message{Payload: proto.MustMarshal(&proto.Ping{Nonce: nonce})},
			m.cfg.ReserveTimeout, func(reply transport.Message, err error) {
				if err == nil {
					var pong proto.Pong
					err = proto.DecodeInto(reply.Payload, &pong)
					reply.Release()
					if err == nil && pong.Nonce == nonce {
						m.cache.Observe(id, m.rt.Now().Sub(t0))
					}
				}
				round.done(false)
			})
		m.mu.Lock()
		m.stats.PingsSent++
		m.mu.Unlock()
	}
	round.wait()
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

// mathCeil avoids importing math for one call site elsewhere.
func mathCeil(v float64) int { return int(math.Ceil(v)) }
