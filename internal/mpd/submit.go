package mpd

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/latency"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/replica"
	"p2pmpi/internal/reservation"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// JobSpec is one p2pmpirun invocation:
// p2pmpirun -n N -r R -a Strategy Program Args...
type JobSpec struct {
	Program  string
	Args     []string
	N        int
	R        int
	Strategy core.Strategy
	// Timeout bounds the whole run (default 5 minutes).
	Timeout time.Duration
	// Exclude, when set, reports whether booking skips a host: it is
	// asked once per entry the booking walk reaches, in walk order. The
	// multi-job scheduler answers from its live ledger of saturated
	// hosts (core.Ledger.Saturated), so concurrent submissions do not
	// burn brokering round-trips on hosts guaranteed to answer NOK, and
	// nothing is built per submission. It must not park.
	Exclude func(id string) bool
	// ReserveRetries enables backoff-retry brokering rounds: when the
	// gathered offers cannot host the request, previously refused peers
	// are re-asked up to this many times before the submission fails,
	// after reservation.Acquire's default backoff. Zero keeps the
	// paper's one-shot §4.2 behaviour.
	ReserveRetries int
	// OnAllocated, when set, is invoked with the computed assignment
	// right after allocation succeeds and before the launch phases. The
	// multi-job scheduler uses it to charge the placement to its slot
	// ledger for the lifetime of the job.
	OnAllocated func(*core.Assignment)
	// FailureDetect enables the mid-run failure detector: while waiting
	// for completion reports the submitter probes every silent host at
	// this period and feeds the answers into one replica monitor per
	// rank (internal/replica). A host silent for failurePings periods
	// has its replicas suspected; one whose replicas all go stale is
	// declared lost: its unreported slots fail immediately, the peer is
	// marked dead in the cache, and the submission either fails over to
	// the surviving replicas or — when a rank has none left — returns
	// ErrRanksLost right away instead of burning the rest of the
	// timeout. Zero keeps the paper's passive wait-until-timeout
	// behaviour.
	FailureDetect time.Duration
	// Preemptable marks the job killable mid-run: hosting MPDs arm a
	// kill channel per local process, and the submitter exposes a
	// Preemption handle through OnPreempt. A killed job fails with
	// ErrPreempted; its reservations return through the normal release
	// paths (never conflict accounting).
	Preemptable bool
	// OnPreempt, when set on a Preemptable spec, receives the job's
	// preemption handle right after allocation succeeds — the earliest
	// instant a kill is meaningful. The multi-job scheduler registers
	// the handle so a starved higher-priority job can evict this one.
	OnPreempt func(*Preemption)
}

// failurePings is how many detect periods a host may stay silent
// before its replicas are suspected.
const failurePings = 2

// BookingTarget is the §4.2 booking fan-out for a request of need
// processes: need overbooked by a fifth, rounded up, plus two hosts —
// the margin that absorbs refusals and dead peers.
func BookingTarget(need int) int {
	return int(math.Ceil(float64(need)*1.2)) + 2
}

// FailoverStats summarises the mid-run failure handling of one
// submission (all zero when FailureDetect was off or nothing failed).
type FailoverStats struct {
	// HostsLost counts hosts the detector declared failed mid-run.
	HostsLost int
	// Failovers counts ranks whose leader (replica 0) was lost while a
	// backup replica delivered — the replication mechanism of §3.2
	// actually paying off.
	Failovers int
	// RanksLost counts ranks with no surviving replica: the job failed.
	RanksLost int
	// Probes counts detector ping probes issued.
	Probes int
}

// JobResult is the submitter's view of a completed job.
type JobResult struct {
	JobID      string
	Key        string
	Assignment *core.Assignment
	// Results holds one entry per process slot, sorted by (rank,
	// replica). Hosts that never reported produce OK=false entries.
	Results []proto.SlotResult
	// Duration is the wall/virtual time from Submit to the last report.
	Duration time.Duration
	// Reserve aggregates the brokering outcomes (offers, refusals, dead
	// peers, rounds) — the raw material of conflict-rate accounting.
	Reserve reservation.Conflicts
	// Failover reports the mid-run failure handling (see FailoverStats).
	Failover FailoverStats
}

// OutputOf returns the captured output of (rank, replica).
func (r *JobResult) OutputOf(rank, replica int) ([]byte, bool) {
	for _, sr := range r.Results {
		if sr.Rank == rank && sr.Replica == replica {
			return sr.Output, sr.OK
		}
	}
	return nil, false
}

// Failures counts slots that did not complete successfully.
func (r *JobResult) Failures() int {
	n := 0
	for _, sr := range r.Results {
		if !sr.OK {
			n++
		}
	}
	return n
}

// LostRanks counts ranks with no successful replica among the results —
// the replication-level failure criterion: a job delivered its work iff
// LostRanks is zero, however many individual replicas died.
func (r *JobResult) LostRanks() int {
	if r.Assignment == nil {
		return 0
	}
	ok := make([]bool, r.Assignment.N)
	for _, sr := range r.Results {
		if sr.OK && sr.Rank >= 0 && sr.Rank < len(ok) {
			ok[sr.Rank] = true
		}
	}
	lost := 0
	for _, v := range ok {
		if !v {
			lost++
		}
	}
	return lost
}

// Submission errors.
var (
	// ErrNotEnoughPeers: even after a cache refresh and brokering, the
	// selected hosts cannot satisfy the request.
	ErrNotEnoughPeers = errors.New("mpd: not enough peers to satisfy the request")
	// ErrLaunchFailed: a prepared host refused or timed out during launch.
	ErrLaunchFailed = errors.New("mpd: launch failed")
	// ErrRanksLost: the mid-run failure detector found a rank whose
	// replicas all died — no surviving copy can deliver the rank's
	// work, so the job is lost (re-book to retry).
	ErrRanksLost = errors.New("mpd: a rank lost every replica")
	// ErrPreempted: the job was checkpoint-killed by scheduler
	// preemption (Preemption.Kill). Terminal, never contention: the
	// scheduler chose to evict this job, so retrying it automatically
	// would undo the eviction.
	ErrPreempted = errors.New("mpd: job preempted")
)

// Preemption is the submitter-side kill switch of one preemptable
// in-flight job. Kill is phase-aware and exactly-once: during the
// launch phases it only marks the job killed — Submit checks the mark
// at each phase boundary and unwinds through the ordinary cancel path,
// so no kill frame races an un-acked Prepare or Start — and once the
// job is running (markRunning) the deferred or direct kill fans
// KillJob out to every used host exactly once. Hosts that died
// meanwhile simply time out; their reservations were already failed by
// the crash path, which is what keeps release exactly-once under
// preemption × churn.
type Preemption struct {
	m     *MPD
	key   string
	hosts []proto.PeerInfo

	mu      sync.Mutex
	killed  bool
	running bool
	sent    bool
}

// Kill requests the job's eviction. Safe from any goroutine over TCP
// and from any actor or event callback of the submitter's scheduler in
// the simulator (the kills leave from the caller's context; nothing
// blocks); duplicate calls are no-ops.
func (p *Preemption) Kill() {
	p.mu.Lock()
	p.killed = true
	send := p.running && !p.sent
	if send {
		p.sent = true
	}
	p.mu.Unlock()
	if send {
		p.sendKills()
	}
}

// Killed reports whether Kill was called.
func (p *Preemption) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// markRunning flips the handle into the running phase; a kill that
// arrived during the launch phases is dispatched now, exactly once.
func (p *Preemption) markRunning() {
	p.mu.Lock()
	p.running = true
	send := p.killed && !p.sent
	if send {
		p.sent = true
	}
	p.mu.Unlock()
	if send {
		p.sendKills()
	}
}

// sendKills fans KillJob out to every used host, fire-and-forget: a
// dead host times out (its crash already failed the reservation) and
// handleKill is idempotent, so duplicates and losses are both safe.
func (p *Preemption) sendKills() {
	for _, h := range p.hosts {
		p.m.castCancel(h.MPDAddr, &proto.KillJob{Key: p.key})
	}
}

// Submit runs the complete §4.2 procedure. It must be called from an
// actor/goroutine of the daemon's runtime and blocks until the job
// completes or times out.
func (m *MPD) Submit(spec JobSpec) (*JobResult, error) {
	if spec.N < 1 || spec.R < 1 {
		return nil, core.ErrBadRequest
	}
	if spec.Timeout <= 0 {
		spec.Timeout = 5 * time.Minute
	}
	if _, ok := m.cfg.Programs[spec.Program]; !ok {
		return nil, fmt.Errorf("mpd: program %q not in registry", spec.Program)
	}
	started := m.rt.Now()
	need := spec.N * spec.R

	// Step 2 (booking): make sure we know enough nodes; refresh the
	// cached list from the supernode if not. A supernode with bounded
	// replies (MaxPeersReturned) ships one rotating window per fetch, so
	// keep fetching while the cache grows toward the overbooked booking
	// target (not the bare demand — stopping at need would strip the
	// overbook margin that absorbs refusals and dead peers). A single
	// refresh would cap the candidate list at one window regardless of
	// how many hosts the overlay actually has. The loop ends when the
	// target is reached or two consecutive windows teach nothing (the
	// overlay has no more hosts to offer); the iteration cap scales with
	// the target and only backstops a pathological supernode.
	fetchTarget := BookingTarget(need)
	for stalls, i := 0, 0; i < 2*fetchTarget+8 && stalls < 2 && m.cache.Size() < fetchTarget; i++ {
		prev := m.cache.Size()
		var err error
		f := vtime.NewFanIn(m.rt, 1)
		m.fetchAndUpdate(func(e error) {
			err = e
			f.Done(false)
		})
		if f.Wait(); err != nil {
			break
		}
		if m.cache.Size() > prev {
			stalls = 0
		} else {
			stalls++
		}
	}

	// Sort by ascending latency and overbook, skipping hosts the caller
	// excluded (the scheduler's live view of saturated hosts): the first
	// BookingTarget(need) that remain are booked, and the walk stops
	// there.
	excluded := func(id string) bool { return spec.Exclude != nil && spec.Exclude(id) }
	ranked := m.cache.RankedView() // read-only iteration: no copy
	book := min(BookingTarget(need), len(ranked)+1)
	candidates := make([]proto.PeerInfo, 0, book)
	lats := make(map[string]time.Duration, book)
	if m.cfg.P > 0 && !excluded(m.cfg.Self.ID) {
		// The submitter's own machine is a peer too, at zero latency.
		candidates = append(candidates, m.cfg.Self)
		lats[m.cfg.Self.ID] = 0
	}
	for _, rp := range ranked {
		if len(candidates) == book {
			break
		}
		if excluded(rp.Info.ID) {
			continue
		}
		candidates = append(candidates, rp.Info)
		lats[rp.Info.ID] = rp.Latency
	}

	// Step 3 (RS-RS brokering) with a unique hash key: an atomic
	// multi-host acquisition that keeps the n×r closest offers, cancels
	// the surplus, and — when the spec allows retries — re-asks refused
	// peers after a backoff instead of failing outright.
	key := m.newKey()
	jobID := m.newKey()[:16]
	m.mu.Lock()
	m.stats.JobsSubmitted++
	m.mu.Unlock()
	var enough func([]reservation.Offer) bool
	if spec.ReserveRetries > 0 {
		// Retry until the offers pass the §4.2 step 6 feasibility bar:
		// at least r hosts and Σ min(P_i, n) ≥ n×r processes.
		enough = func(offers []reservation.Offer) bool {
			if len(offers) < spec.R {
				return false
			}
			total := 0
			for _, o := range offers {
				total += core.Capacity(o.P, spec.N)
			}
			return total >= need
		}
	}
	res, conflicts, acqErr := reservation.Acquire(m.rt, m.net, candidates, reservation.AcquireSpec{
		Req:     proto.Reserve{Key: key, JobID: jobID, Submitter: m.cfg.Self, N: spec.N},
		Timeout: m.cfg.ReserveTimeout,
		Need:    need,
		Enough:  enough,
		Retries: spec.ReserveRetries,
	})

	// Step 5: mark silent peers dead in the cache.
	for _, d := range res.Dead {
		if d.ID != m.cfg.Self.ID {
			m.cache.MarkDead(d.ID)
		}
	}
	if acqErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotEnoughPeers, acqErr)
	}

	// Step 6 (allocation): slist is the kept offer list, in ascending
	// latency order (Acquire already cancelled everything beyond n×r).
	slist := res.Offers

	hostSlots := make([]core.HostSlot, 0, len(slist))
	for _, o := range slist {
		hostSlots = append(hostSlots, core.HostSlot{
			ID:      o.Peer.ID,
			Site:    o.Peer.Site,
			P:       o.P,
			Latency: lats[o.Peer.ID],
		})
	}
	asg, err := core.Allocate(hostSlots, spec.N, spec.R, spec.Strategy)
	if err != nil {
		for _, o := range slist {
			m.cancelReservation(o.Peer, key)
		}
		return nil, fmt.Errorf("%w: %v", ErrNotEnoughPeers, err)
	}
	if spec.OnAllocated != nil {
		spec.OnAllocated(asg)
	}

	// Build the slot table; process g listens on ProcBasePort+g at its
	// host. Hosts with u_i = 0 get their reservations cancelled (§4.3).
	infoByID := make(map[string]proto.PeerInfo, len(slist))
	for _, o := range slist {
		infoByID[o.Peer.ID] = o.Peer
	}
	var table []proto.Slot
	var usedHosts []proto.PeerInfo
	global := 0
	for i, placements := range asg.Procs {
		if asg.U[i] == 0 {
			m.cancelReservation(infoByID[asg.Hosts[i].ID], key)
			continue
		}
		info := infoByID[asg.Hosts[i].ID]
		usedHosts = append(usedHosts, info)
		host := hostOf(info.MPDAddr)
		for _, pl := range placements {
			table = append(table, proto.Slot{
				Rank: pl.Rank, Replica: pl.Replica, Global: global,
				HostID: info.ID,
				Addr:   fmt.Sprintf("%s:%d", host, m.cfg.ProcBasePort+global),
			})
			global++
		}
	}

	// The preemption handle exists from allocation onward: a kill
	// during the launch phases only sets the mark (checked at each
	// phase boundary below); one during the run fans out KillJob.
	var pre *Preemption
	if spec.Preemptable {
		pre = &Preemption{m: m, key: key, hosts: usedHosts}
		if spec.OnPreempt != nil {
			spec.OnPreempt(pre)
		}
	}

	// Register the completion mailbox before anything can finish.
	doneMB := m.rt.NewMailbox()
	m.mu.Lock()
	if m.pendingDone == nil {
		m.pendingDone = make(map[string]vtime.Mailbox)
	}
	m.pendingDone[jobID] = doneMB
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pendingDone, jobID)
		m.mu.Unlock()
	}()

	// Phase one: Prepare on every used host (step 6-7).
	prep := &proto.Prepare{
		Key: key, JobID: jobID, Program: spec.Program, Args: spec.Args,
		N: spec.N, R: spec.R, Table: table,
		SubmitterMPD: m.cfg.Self.MPDAddr,
		Deadline:     spec.Timeout,
		Preemptable:  spec.Preemptable,
	}
	if err := m.fanOutReady(usedHosts, prep); err != nil {
		// Hosts whose Prepare succeeded already consumed their
		// reservation into a running application: cancelLaunch unwinds
		// both the RS hold and the prepared job.
		for _, o := range slist {
			m.cancelLaunch(o.Peer, key)
		}
		return nil, err
	}
	if pre != nil && pre.Killed() {
		// Killed during phase one: nothing started anywhere, so unwind
		// exactly like a failed Prepare — no kill frames needed.
		for _, o := range slist {
			m.cancelLaunch(o.Peer, key)
		}
		return nil, ErrPreempted
	}

	// Phase two: Start everywhere (step 8).
	if err := m.fanOutStart(usedHosts, key); err != nil {
		// Hosts that did receive Start run to completion and release
		// themselves; abortUnstarted is a no-op there.
		for _, h := range usedHosts {
			m.cancelLaunch(h, key)
		}
		return nil, err
	}
	if pre != nil {
		// Running from here on: a kill marked during the launch phases
		// is dispatched now, later ones go out directly.
		pre.markRunning()
	}

	// Collect one JobDone per used host — with spec.FailureDetect set,
	// under the watch of the mid-run failure detector.
	co := m.collectResults(spec, jobID, usedHosts, table, doneMB)

	out := &JobResult{
		JobID:      jobID,
		Key:        key,
		Assignment: asg,
		Duration:   m.rt.Now().Sub(started),
		Reserve:    conflicts,
		Failover:   co.failover,
	}
	okReplicas := make(map[int][]int, spec.N) // rank -> replicas that delivered
	for _, s := range table {
		slot := [2]int{s.Rank, s.Replica}
		if sr, ok := co.resultBySlot[slot]; ok {
			out.Results = append(out.Results, sr)
			if sr.OK {
				okReplicas[sr.Rank] = append(okReplicas[sr.Rank], sr.Replica)
			}
			continue
		}
		reason := "no completion report from host " + s.HostID
		if why, lost := co.lostSlots[slot]; lost {
			reason = why
		}
		out.Results = append(out.Results, proto.SlotResult{
			Rank: s.Rank, Replica: s.Replica, OK: false, Err: reason,
		})
	}
	sort.Slice(out.Results, func(i, j int) bool {
		if out.Results[i].Rank != out.Results[j].Rank {
			return out.Results[i].Rank < out.Results[j].Rank
		}
		return out.Results[i].Replica < out.Results[j].Replica
	})

	// Failover accounting: a rank failed over when it delivered but its
	// leader (replica 0) was not among the survivors. RanksLost comes
	// from the detector (collectResults) — only ranks *confirmed*
	// unable to deliver count, not ranks merely pending when an early
	// abort cut the wait short.
	for rank := 0; rank < spec.N; rank++ {
		oks := okReplicas[rank]
		if len(oks) == 0 {
			continue
		}
		leader := oks[0]
		for _, r := range oks[1:] {
			if r < leader {
				leader = r
			}
		}
		if leader > 0 {
			out.Failover.Failovers++
		}
	}
	// Preemption outranks the detector's verdict: a killed job's ranks
	// are "lost" by design, and reporting them as ErrRanksLost would
	// send the job back through churn's re-book path — undoing the
	// eviction the scheduler just paid for.
	if pre != nil && pre.Killed() {
		return out, fmt.Errorf("%w: job %s", ErrPreempted, jobID)
	}
	if spec.FailureDetect > 0 && out.Failover.RanksLost > 0 {
		return out, fmt.Errorf("%w: %d of %d ranks", ErrRanksLost, out.Failover.RanksLost, spec.N)
	}
	return out, nil
}

// collectOutcome is what collectResults hands back to Submit.
type collectOutcome struct {
	resultBySlot map[[2]int]proto.SlotResult
	lostSlots    map[[2]int]string // unreported slots on hosts declared dead
	failover     FailoverStats
}

// collectResults waits for one JobDone per used host, bounded by the
// job timeout. When spec.FailureDetect > 0 it interleaves a §3.2-style
// failure detector: every detect period the still-silent hosts are
// probed with application-level pings, answers feed one replica monitor
// per rank (replica.NewMonitor), and Suspect declares replicas on stale
// hosts dead. A host whose replicas are all dead is written off — its
// pending slots fail, the peer is marked dead in the cache — and the
// wait ends early once either every host is accounted for or some rank
// has no surviving replica left.
func (m *MPD) collectResults(spec JobSpec, jobID string, usedHosts []proto.PeerInfo,
	table []proto.Slot, doneMB vtime.Mailbox) collectOutcome {

	detect := spec.FailureDetect
	deadline := m.rt.Now().Add(spec.Timeout)

	co := collectOutcome{
		resultBySlot: make(map[[2]int]proto.SlotResult),
		lostSlots:    make(map[[2]int]string),
	}
	outstanding := make(map[string]proto.PeerInfo, len(usedHosts))
	hostInfo := make(map[string]proto.PeerInfo, len(usedHosts))
	for _, h := range usedHosts {
		outstanding[h.ID] = h
		hostInfo[h.ID] = h
	}
	slotsByHost := make(map[string][]proto.Slot, len(usedHosts))
	pending := make([]int, spec.N) // undecided slots per rank
	okCount := make([]int, spec.N)
	for _, s := range table {
		slotsByHost[s.HostID] = append(slotsByHost[s.HostID], s)
		pending[s.Rank]++
	}
	var groups []*replica.Group
	if detect > 0 {
		now := m.rt.Now()
		// A replica is suspected after missing failurePings whole probe
		// periods (plus the in-flight probe's own timeout).
		failTO := failurePings*detect + m.cfg.ReserveTimeout
		groups = make([]*replica.Group, spec.N)
		for k := range groups {
			groups[k] = replica.NewMonitor(spec.R, failTO, now)
		}
	}

	// writtenOff records hosts the detector declared lost, so that only
	// a report from an actually written-off host retracts a loss — a
	// merely duplicated JobDone (the host reported twice: network-level
	// duplication, or a retransmit whose first copy arrived) must not
	// decrement HostsLost for a write-off that never happened.
	writtenOff := make(map[string]bool)

	// ingest folds one completion report into the bookkeeping. A report
	// from a host the detector already wrote off retracts the loss:
	// delivered work counts, and the report itself proves the peer
	// alive, so the write-off's cache eviction is reverted too.
	ingest := func(d *proto.JobDone) {
		if _, waiting := outstanding[d.HostID]; !waiting {
			if writtenOff[d.HostID] {
				delete(writtenOff, d.HostID)
				co.failover.HostsLost--
				if info, ok := hostInfo[d.HostID]; ok {
					m.cache.Update([]proto.PeerInfo{info})
				}
			}
		}
		delete(outstanding, d.HostID)
		for _, sr := range d.Results {
			if sr.Rank < 0 || sr.Rank >= spec.N || sr.Replica < 0 || sr.Replica >= spec.R {
				continue
			}
			slot := [2]int{sr.Rank, sr.Replica}
			if _, seen := co.resultBySlot[slot]; seen {
				continue // duplicate report
			}
			if _, wroteOff := co.lostSlots[slot]; wroteOff {
				delete(co.lostSlots, slot) // pending already settled
			} else {
				pending[sr.Rank]--
			}
			co.resultBySlot[slot] = sr
			if sr.OK {
				okCount[sr.Rank]++
			} else if groups != nil {
				groups[sr.Rank].MarkDead(sr.Replica)
			}
		}
	}

	// probeRound runs one detector pass over the still-silent hosts and
	// reports whether some rank is now confirmed unable to deliver.
	// Hosts are visited in sorted order: every probe consumes seeded
	// nonce and jitter draws, and map order would leak runtime
	// randomization into the virtual timeline.
	probeRound := func() (rankLost bool) {
		ids := sortedHostIDs(outstanding)
		// Capture each replica's incarnation epoch before soliciting
		// heartbeats: an answer produced by a pre-failover incarnation
		// (late, duplicated, or raced by a death declaration while the
		// probes were in flight) then fails the epoch check in
		// HeartbeatAt instead of resurrecting a written-off replica.
		epochs := make(map[[2]int]uint64, len(ids))
		for _, id := range ids {
			for _, s := range slotsByHost[id] {
				epochs[[2]int{s.Rank, s.Replica}] = groups[s.Rank].Epoch(s.Replica)
			}
		}
		answers := m.probeHosts(ids, outstanding, jobID)
		co.failover.Probes += len(ids)
		// Completion reports that arrived while the probes were in
		// flight take precedence over the probes' verdicts: a host that
		// finished mid-round answers Known=false (the job is gone from
		// its table — because it completed), and judging that silence
		// without draining the queue would write off delivered work.
		for doneMB.Len() > 0 {
			if v, ok := doneMB.Pop(); ok {
				ingest(v.(*proto.JobDone))
			}
		}
		now := m.rt.Now()
		for _, id := range ids {
			if _, waiting := outstanding[id]; !waiting {
				continue // reported during the probe round
			}
			switch answers[id] {
			case probeAlive:
				for _, s := range slotsByHost[id] {
					groups[s.Rank].HeartbeatAt(s.Replica, epochs[[2]int{s.Rank, s.Replica}], now)
				}
			case probeGone:
				// The host answers but no longer knows the job: it
				// crashed and rebooted mid-run. Its processes are
				// definitively gone — no staleness threshold needed.
				for _, s := range slotsByHost[id] {
					groups[s.Rank].MarkDead(s.Replica)
				}
			case probeSilent:
				// No heartbeat; the staleness window decides below.
			}
		}
		for _, g := range groups {
			g.Suspect(now)
		}
		for _, id := range ids {
			if _, waiting := outstanding[id]; !waiting {
				continue // reported during the probe round
			}
			lost := true
			for _, s := range slotsByHost[id] {
				if groups[s.Rank].Alive(s.Replica) {
					lost = false
					break
				}
			}
			if !lost {
				continue
			}
			delete(outstanding, id)
			writtenOff[id] = true
			co.failover.HostsLost++
			m.cache.MarkDead(id)
			for _, s := range slotsByHost[id] {
				slot := [2]int{s.Rank, s.Replica}
				if _, done := co.resultBySlot[slot]; done {
					continue
				}
				co.lostSlots[slot] = "host " + id + " failed mid-run (detector)"
				pending[s.Rank]--
			}
		}
		// Early exit: a rank with no delivered and no pending replica
		// can never succeed, so waiting out the rest of the timeout
		// only inflates the measured completion time of a lost job.
		for rank := 0; rank < spec.N; rank++ {
			if okCount[rank] == 0 && pending[rank] <= 0 {
				return true
			}
		}
		return false
	}

	// The probe cadence is a fixed schedule, not a silence timer: a
	// steady trickle of completion reports arriving under one detect
	// period apart must not postpone detection of an early host death.
	nextProbe := m.rt.Now().Add(detect)
collect:
	for len(outstanding) > 0 {
		wait := deadline.Sub(m.rt.Now())
		if wait <= 0 {
			break // deadline reached: a zero-wait pop would spin forever
		}
		step := wait
		if detect > 0 {
			until := nextProbe.Sub(m.rt.Now())
			if until <= 0 {
				if probeRound() {
					break collect
				}
				nextProbe = m.rt.Now().Add(detect)
				continue
			}
			if until < step {
				step = until
			}
		}
		v, err := doneMB.PopTimeout(step)
		if err == nil {
			ingest(v.(*proto.JobDone))
			continue
		}
		if err != vtime.ErrTimeout {
			break collect // mailbox closed: the daemon is shutting down
		}
		// detect <= 0: passive wait, only the deadline ends it.
		// detect > 0: the pop timed out at the probe fence — the next
		// iteration runs the round.
	}
	// A rank is confirmed lost when no replica delivered and none is
	// still pending — every copy reported failure or was written off
	// with its host. Ranks merely pending (deadline expiry, early
	// abort for another rank's loss) are not counted: their fate is
	// unknown, and the legacy no-report accounting covers them.
	for rank := 0; rank < spec.N; rank++ {
		if okCount[rank] == 0 && pending[rank] <= 0 {
			co.failover.RanksLost++
		}
	}
	return co
}

// sortedHostIDs returns the map's keys in ascending order.
func sortedHostIDs(hosts map[string]proto.PeerInfo) []string {
	ids := make([]string, 0, len(hosts))
	for id := range hosts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// probeResult classifies one detector probe.
type probeResult int

const (
	// probeSilent: no answer before the timeout (host down or
	// partitioned) — staleness accumulates.
	probeSilent probeResult = iota
	// probeAlive: the host still hosts the job — a fresh heartbeat.
	probeAlive
	// probeGone: the host answers but no longer knows the job — it
	// crashed and rebooted mid-run, so its processes are dead for sure.
	probeGone
)

// probeHosts sends one JobPing to every given host concurrently — the
// detector's application-level heartbeat (§4.1-style, never ICMP) at
// job granularity, so a host reboot cannot masquerade as process
// liveness.
func (m *MPD) probeHosts(ids []string, hosts map[string]proto.PeerInfo, jobID string) map[string]probeResult {
	var mu sync.Mutex
	answers := make(map[string]probeResult, len(ids))
	round := vtime.NewFanIn(m.rt, len(ids))
	for _, id := range ids {
		id := id
		nonce := m.nextNonce()
		transport.Call(m.net, hosts[id].MPDAddr,
			transport.Message{Payload: proto.MustMarshal(&proto.JobPing{Nonce: nonce, JobID: jobID})},
			m.cfg.ReserveTimeout, func(reply transport.Message, err error) {
				res := probeSilent
				if err == nil {
					var pong proto.JobPong
					err = proto.DecodeInto(reply.Payload, &pong)
					reply.Release()
					if err == nil && pong.Nonce == nonce {
						res = probeGone
						if pong.Known {
							res = probeAlive
						}
					}
				}
				mu.Lock()
				answers[id] = res
				mu.Unlock()
				round.Done(false)
			})
	}
	round.Wait()
	return answers
}

// fanOutReady sends Prepare to every host and fails if any is not
// Ready. Error classification (the transport.Retryable audit): a
// retryable failure — the exchange timed out or the listener was
// briefly unreachable — is re-attempted under the daemon's retry
// policy, because under a partition or gray link the host is alive and
// handlePrepare is idempotent (a duplicate Prepare whose first Ready
// was lost answers OK again). Only after the budget is exhausted, or
// on a terminal "peer gone" error (transport.ErrClosed), is the host
// marked dead in the cache so the re-booking retry a scheduler issues
// does not select it again — at launch time a host that stays silent
// through every retry is indistinguishable from a dead one, and the
// cache entry is re-learned on the next refresh either way.
func (m *MPD) fanOutReady(hosts []proto.PeerInfo, prep *proto.Prepare) error {
	var mu sync.Mutex
	var firstErr error
	round := vtime.NewFanIn(m.rt, len(hosts))
	req := transport.Message{Payload: proto.MustMarshal(prep)}
	for _, h := range hosts {
		h := h
		m.callRetry(h.MPDAddr, req, m.cfg.PrepareTimeout, 0, func(reply transport.Message, err error) {
			ok, why := false, ""
			if err != nil {
				why = err.Error()
				if h.ID != m.cfg.Self.ID {
					m.cache.MarkDead(h.ID)
				}
			} else {
				var rdy proto.Ready
				err = proto.DecodeInto(reply.Payload, &rdy)
				reply.Release()
				if err == nil {
					ok, why = rdy.OK, rdy.Reason
				}
			}
			mu.Lock()
			if !ok && firstErr == nil {
				firstErr = fmt.Errorf("%w: host %s: %s", ErrLaunchFailed, h.ID, why)
			}
			mu.Unlock()
			round.Done(false)
		})
	}
	round.Wait()
	return firstErr
}

// fanOutStart sends Start to every host and waits for the acks — or
// for the first failure, whichever comes first. Retryable failures
// re-send under the daemon's retry policy — handleStart is idempotent
// (a duplicate Start on a started job just acks), so a lost StartAck
// cannot double-launch.
func (m *MPD) fanOutStart(hosts []proto.PeerInfo, key string) error {
	round := vtime.NewFanIn(m.rt, len(hosts))
	req := transport.Message{Payload: proto.MustMarshal(&proto.Start{Key: key})}
	for _, h := range hosts {
		m.callRetry(h.MPDAddr, req, m.cfg.StartTimeout, 0, func(reply transport.Message, err error) {
			reply.Release()
			round.Done(err != nil)
		})
	}
	if !round.Wait() {
		return fmt.Errorf("%w: start fan-out failed", ErrLaunchFailed)
	}
	return nil
}

// cancelLaunch unwinds one host after a failed launch phase: the RS
// hold (if the job never got past brokering there) and the
// prepared-but-unstarted application (if Prepare already consumed the
// hold) are both dropped.
func (m *MPD) cancelLaunch(peer proto.PeerInfo, key string) {
	m.cancelReservation(peer, key)
	if peer.MPDAddr != "" {
		m.castCancel(peer.MPDAddr, &proto.Cancel{Key: key})
	}
}

func (m *MPD) cancelReservation(peer proto.PeerInfo, key string) {
	if peer.RSAddr != "" {
		m.castCancel(peer.RSAddr, &proto.Cancel{Key: key})
	}
}

// castCancel sends one Cancel or KillJob, fire-and-forget: the answer,
// if one comes within ReserveTimeout, only goes back to the buffer pool.
func (m *MPD) castCancel(addr string, msg any) {
	transport.Call(m.net, addr, transport.Message{Payload: proto.MustMarshal(msg)},
		m.cfg.ReserveTimeout, func(reply transport.Message, _ error) { reply.Release() })
}

// Hostname is the built-in program used by the paper's co-allocation
// experiment: every process simply echoes the name of its host.
func Hostname(env *Env) error {
	_, err := fmt.Fprintf(&env.Out, "%s", env.HostID)
	return err
}

// Spin is the built-in program of the churn experiments: it occupies
// its process for the duration given as the job's first argument (a
// bare number of seconds like "90", or a Go duration like "2m30s";
// default 30s), then echoes its host name like Hostname. A run long
// enough for seeded failures to strike mid-flight is what turns the
// replication degree into an observable survival edge.
func Spin(env *Env) error {
	d := 30 * time.Second
	if len(env.Args) > 0 {
		if secs, err := strconv.ParseFloat(env.Args[0], 64); err == nil {
			d = time.Duration(secs * float64(time.Second))
		} else if pd, err := time.ParseDuration(env.Args[0]); err == nil {
			d = pd
		} else {
			return fmt.Errorf("spin: bad duration %q", env.Args[0])
		}
	}
	if d > 0 {
		// Preemptible: a checkpoint-kill mid-spin ends the process with
		// ErrPreempted instead of burning the rest of the duration. For
		// non-preemptable jobs this is exactly RT.Sleep.
		if err := env.SleepPreemptible(d); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(&env.Out, "%s", env.HostID)
	return err
}

// Estimator re-exports the latency kinds for configuration convenience.
var _ = latency.KindLast
