package replica

import "time"

// Group tracks liveness and leadership inside one rank's replica set.
type Group struct {
	r           int // replication degree
	self        int // this process's replica index
	failTimeout time.Duration

	alive  []bool
	lastHB []time.Time
	// epoch counts death declarations per replica — an incarnation
	// fence. Heartbeat observations solicited before a declaration
	// carry the old epoch and HeartbeatAt rejects them, so a late or
	// duplicated answer from a pre-failover incarnation cannot
	// resurrect a replica the detector already wrote off.
	epoch []uint64
}

// NewGroup creates the state machine for a group of r replicas, of which
// this process is replica self. All members start alive; heartbeat
// staleness is judged against failTimeout.
func NewGroup(r, self int, failTimeout time.Duration, now time.Time) *Group {
	if self < 0 || self >= r {
		panic("replica: self index out of range")
	}
	return newGroup(r, self, failTimeout, now)
}

// NewMonitor creates an observer-side state machine for a group of r
// replicas: the caller is not a member (Self returns -1), so no replica
// is exempt from suspicion. The submitter's mid-run failure detector
// uses one monitor per MPI rank to track which replicas are still live
// and whether a backup was promoted (the leader moved past index 0).
func NewMonitor(r int, failTimeout time.Duration, now time.Time) *Group {
	return newGroup(r, -1, failTimeout, now)
}

// newGroup seeds the all-alive initial state shared by both vantage
// points; self = -1 builds an observer exempting no member.
func newGroup(r, self int, failTimeout time.Duration, now time.Time) *Group {
	if r < 1 {
		panic("replica: degree must be >= 1")
	}
	g := &Group{
		r:           r,
		self:        self,
		failTimeout: failTimeout,
		alive:       make([]bool, r),
		lastHB:      make([]time.Time, r),
		epoch:       make([]uint64, r),
	}
	for i := range g.alive {
		g.alive[i] = true
		g.lastHB[i] = now
	}
	return g
}

// HeartbeatFrom records a heartbeat observation from a replica. A
// heartbeat resurrects a falsely suspected member (the detector is not
// perfect; transmission-level dedup keeps that safe). Callers that
// solicit heartbeats asynchronously should capture Epoch before the
// probe and feed the answer through HeartbeatAt instead, so answers
// from a pre-failover incarnation are fenced out.
func (g *Group) HeartbeatFrom(idx int, now time.Time) {
	if idx < 0 || idx >= g.r {
		return
	}
	g.alive[idx] = true
	g.lastHB[idx] = now
}

// Epoch returns a replica's current incarnation number: it advances on
// every death declaration (MarkDead, Suspect).
func (g *Group) Epoch(idx int) uint64 {
	if idx < 0 || idx >= g.r {
		return 0
	}
	return g.epoch[idx]
}

// HeartbeatAt records a heartbeat solicited while the replica was at
// the given epoch. A stale epoch means the probe predates a death
// declaration — the answer may come from the failed incarnation (a
// late or duplicated JobPong), so it is dropped rather than allowed to
// resurrect the member.
func (g *Group) HeartbeatAt(idx int, epoch uint64, now time.Time) {
	if idx < 0 || idx >= g.r || g.epoch[idx] != epoch {
		return
	}
	g.alive[idx] = true
	g.lastHB[idx] = now
}

// MarkDead declares a replica permanently failed (e.g. its host was
// reported down by the middleware).
func (g *Group) MarkDead(idx int) {
	if idx >= 0 && idx < g.r && g.alive[idx] {
		g.alive[idx] = false
		g.epoch[idx]++
	}
}

// Suspect marks every member whose heartbeat is older than failTimeout
// as dead, and returns the indices it newly suspected. Self is exempt.
func (g *Group) Suspect(now time.Time) []int {
	var suspected []int
	cutoff := now.Add(-g.failTimeout)
	for i := 0; i < g.r; i++ {
		if i == g.self || !g.alive[i] {
			continue
		}
		if g.lastHB[i].Before(cutoff) {
			g.alive[i] = false
			g.epoch[i]++
			suspected = append(suspected, i)
		}
	}
	return suspected
}

// Leader returns the lowest live replica index, or -1 when the whole
// group is considered dead (cannot happen for self-including views).
func (g *Group) Leader() int {
	for i := 0; i < g.r; i++ {
		if g.alive[i] {
			return i
		}
	}
	return -1
}

// IsLeader reports whether this process currently leads its group.
func (g *Group) IsLeader() bool { return g.Leader() == g.self }

// Alive reports a replica's current liveness.
func (g *Group) Alive(idx int) bool {
	return idx >= 0 && idx < g.r && g.alive[idx]
}

// LiveCount returns the number of live replicas.
func (g *Group) LiveCount() int {
	n := 0
	for _, a := range g.alive {
		if a {
			n++
		}
	}
	return n
}
