package overlay

import (
	"sort"
	"sync"
	"time"

	"p2pmpi/internal/latency"
	"p2pmpi/internal/proto"
)

// Cache is the MPD's local copy of the supernode host list (the "cached
// list" of §4.1) together with the measured latency to each peer. The
// booking step consumes Ranked(), the ascending-latency ordering.
//
// Peers marked dead stay in the table but are invisible to every
// consumer (Size, IDs, Peer, Ranked) until a fresh snapshot revives
// them: under churn a host that crashes and reboots keeps its identity,
// and retaining the entry lets the dead→alive transition be an O(1)
// flag flip instead of a full re-learn.
type Cache struct {
	mu     sync.Mutex
	selfID string
	// peers points at the interner's canonical values (a private copy
	// without an interner): a materialized cache holds one entry per
	// world host, and a pointer costs 8 bytes where a copy costs 64.
	peers map[string]*proto.PeerInfo
	lat   latency.Table   // embedded by value: one Cache = one heap object
	dead  map[string]bool // peers marked dead; hidden until re-learned
	live  int             // len(peers) minus dead entries still in peers

	// pending holds snapshots accepted by Update but not yet merged.
	// Merging a host list is O(list) map work, and on a multi-thousand-
	// host world most caches belong to compute peers that take snapshots
	// at every registration yet are only ever *read* on the submitter —
	// so until the first read, Update just queues a copy of the list.
	// Replaying the snapshots in arrival order on first read produces
	// exactly the state eager merging would have; a cache nobody reads
	// never builds its map at all. Once materialized (a reader flushed),
	// merges go straight to the table again.
	pending      [][]proto.PeerInfo
	materialized bool

	// ranked memoizes the ascending-latency ordering. Submissions call
	// Ranked far more often than pings and snapshots mutate the cache,
	// so the O(n log n) sort (whose comparator does two estimator
	// lookups per comparison) runs only when the flag says the cached
	// slice went stale — every liveness or latency transition clears it:
	// Observe, Update (new info or a dead→alive revival) and MarkDead.
	ranked      []RankedPeer
	rankedValid bool

	// intern, when set, canonicalizes the PeerInfo values this cache
	// retains (pending copies and the merged table) against the
	// world-shared Interner — equal values, shared backing strings.
	intern *Interner
	// frameGen is the interner generation of the last frame this
	// materialized cache merged without changing anything, 0 for none.
	// Every edit of peers or dead clears it (setLocked, MarkDead), so
	// while it is set, merging that frame again is a no-op.
	frameGen uint64
	// pendingCap bounds the total entries retained across queued
	// snapshots while unmaterialized (0 = unbounded); see SetPendingCap.
	pendingCap int
	pendingN   int
}

// NewCache creates a cache for the peer with the given identity. The
// estimator kind controls how ping samples condense into the ordering
// latency (the paper's behaviour is KindLast). The maps are built on
// first write: a compute peer whose cache is never consulted carries no
// table at all.
func NewCache(selfID string, kind latency.Kind, window int) *Cache {
	return &Cache{
		selfID: selfID,
		lat:    latency.MakeTable(kind, window),
	}
}

// SetInterner routes this cache's retained PeerInfo values through the
// deployment-wide interner. Behaviour-neutral (values are equal either
// way); call before the cache sees its first Update.
func (c *Cache) SetInterner(it *Interner) { c.intern = it }

// SetPendingCap bounds how many peer entries the cache retains, in
// total, across snapshots queued before materialization (0 keeps every
// entry, the historical behaviour). A million-host world's compute
// peers each receive an O(MaxPeersReturned) boot snapshot that nobody
// ever reads — the dominant per-host retention. The cap truncates what
// an unread cache keeps; it is a per-host local, content-deterministic
// decision, so it cannot perturb cross-shard replay. Once a reader
// materializes the cache, merges are uncapped again. Worlds whose
// compute-peer caches feed measurements (the paper-scale goldens) must
// leave this off; the harness only sets it on multi-thousand-host
// sweeps where only the frontal's view is consulted.
func (c *Cache) SetPendingCap(n int) { c.pendingCap = n }

// Update merges a host list snapshot into the cache. Self is excluded;
// a peer previously marked dead is resurrected only by a fresh snapshot
// (it re-registered or is still listed by the supernode). A revival
// invalidates the memoized ranking even when the peer's info is
// unchanged — the dead→alive transition alone changes what Ranked
// returns.
func (c *Cache) Update(list []proto.PeerInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queuesLocked() {
		c.queueLocked(list)
		return
	}
	c.flushLocked()
	c.mergeLocked(list)
}

// UpdateFrame is Update for a host-list reply still in its frame: it
// validates the whole frame first (proto.ReadPeerList) and then walks it
// in place. A queued snapshot copies only the entries the queue keeps,
// and a materialized cache merges straight from the frame; either way
// an entry the interner or the table already holds, equal, builds no
// string. With an interner, a materialized cache whose last merge of
// this very frame changed nothing, and which nothing has edited since,
// skips the merge after one byte compare against the interner's newest
// frame: a periodic refresh mostly repeats the previous reply. A frame
// that fails to decode changes nothing and returns the decode error.
// The cache keeps no view of frame.
func (c *Cache) UpdateFrame(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	queues := c.queuesLocked()
	if !queues && c.frameGen != 0 && c.intern.holdsFrame(frame, c.frameGen) {
		return nil
	}
	r, err := proto.ReadPeerList(frame)
	if err != nil {
		return err
	}
	if queues {
		cp := c.reserveLocked(r.Len())
		for i := range cp {
			e, _ := r.Next()
			cp[i] = c.intern.entry(e)
		}
		return nil
	}
	c.flushLocked()
	if c.peers == nil {
		c.peers = make(map[string]*proto.PeerInfo, r.Len())
	}
	// Recorded before the walk: an entry the walk changes clears it, so
	// it survives only a merge that was a no-op.
	c.frameGen = c.intern.publishFrame(frame)
	for e, ok := r.Next(); ok; e, ok = r.Next() {
		if c.selfID == string(e.ID) {
			continue
		}
		old := c.peers[string(e.ID)]
		dead := c.dead[string(e.ID)]
		if old != nil && !dead && old.Site == string(e.Site) &&
			old.MPDAddr == string(e.MPDAddr) && old.RSAddr == string(e.RSAddr) {
			continue
		}
		c.setLocked(c.intern.entryRef(e), old == nil || dead)
	}
	return nil
}

// queuesLocked reports whether the next snapshot is queued rather than
// merged: the cache was never read, and the queue has room (see
// pending).
func (c *Cache) queuesLocked() bool {
	return !c.materialized && len(c.pending) < maxPendingSnapshots
}

// queueLocked defers a snapshot's merge. The snapshot must be copied —
// callers reuse pooled scratch slices — and the copy is interned
// (shared strings).
func (c *Cache) queueLocked(list []proto.PeerInfo) {
	cp := c.reserveLocked(len(list))
	for i := range cp {
		cp[i] = c.intern.PeerInfo(list[i])
	}
}

// reserveLocked queues a snapshot of the first entries of an n-entry
// list, for the caller to fill, and returns it. When a cap bounds
// unread retention the copy is truncated to the remaining entry budget,
// and nothing is queued once that is spent. Past maxPendingSnapshots a
// long-horizon run that keeps refreshing a cache nobody reads
// materializes instead: unbounded deferral would retain one O(world)
// snapshot per refresh, and the boot storm (the case the deferral
// exists for) is long over.
func (c *Cache) reserveLocked(n int) []proto.PeerInfo {
	room := c.keepsLocked()
	if room == 0 {
		return nil
	} else if room > 0 {
		n = min(n, room)
	}
	cp := make([]proto.PeerInfo, n)
	c.pending = append(c.pending, cp)
	c.pendingN += n
	return cp
}

// keepsLocked returns how many leading entries of the next snapshot
// the cache will look at, or -1 for all of them: an unread cache under
// a pending cap keeps only its remaining entry budget, so UpdateFrame
// need not walk the rest of the reply.
func (c *Cache) keepsLocked() int {
	if c.materialized || c.pendingCap <= 0 || len(c.pending) >= maxPendingSnapshots {
		return -1
	}
	return max(0, c.pendingCap-c.pendingN)
}

// maxPendingSnapshots bounds the deferred-merge queue; see Update.
const maxPendingSnapshots = 8

// mergeLocked applies one snapshot to the materialized table. A periodic
// refresh mostly repeats the previous reply, so an entry that is held,
// live and equal costs one lookup: nothing about it changes.
func (c *Cache) mergeLocked(list []proto.PeerInfo) {
	if c.peers == nil {
		c.peers = make(map[string]*proto.PeerInfo, len(list))
	}
	for _, p := range list {
		if p.ID == c.selfID {
			continue
		}
		old := c.peers[p.ID]
		dead := c.dead[p.ID]
		if old != nil && !dead && *old == p {
			continue
		}
		c.setLocked(c.intern.ref(p), old == nil || dead)
	}
}

// setLocked enters a new or changed entry, live; revived counts a
// peer that was absent or dead.
func (c *Cache) setLocked(ref *proto.PeerInfo, revived bool) {
	if revived {
		c.live++
	}
	c.peers[ref.ID] = ref // interned first: the map key shares its ID string
	delete(c.dead, ref.ID)
	c.rankedValid = false
	c.frameGen = 0
}

// flushLocked materializes the table, replaying deferred snapshots in
// arrival order. Every reader goes through it.
func (c *Cache) flushLocked() {
	if c.materialized {
		return
	}
	c.materialized = true
	pending := c.pending
	c.pending = nil
	c.pendingN = 0
	if len(pending) == 0 {
		return
	}
	if len(c.peers) == 0 {
		// Size the table for the largest snapshot so the first merge
		// does not rehash its way up.
		max := 0
		for _, l := range pending {
			if len(l) > max {
				max = len(l)
			}
		}
		c.peers = make(map[string]*proto.PeerInfo, max)
	}
	for _, l := range pending {
		c.mergeLocked(l)
	}
}

// Observe records a ping round-trip sample for a live peer.
func (c *Cache) Observe(id string, rtt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	if _, ok := c.peers[id]; ok && !c.dead[id] {
		c.lat.Observe(id, rtt)
		c.rankedValid = false
	}
}

// MarkDead hides a peer that failed to answer a reservation or ping
// (§4.2 step 5: "nodes that have not responded before a given timeout
// are marked as dead"). Its latency history is forgotten — a rebooted
// host re-measures from scratch.
func (c *Cache) MarkDead(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	if _, ok := c.peers[id]; ok && !c.dead[id] {
		c.rankedValid = false
		c.live--
	}
	c.lat.Forget(id)
	c.frameGen = 0
	if c.dead == nil {
		c.dead = make(map[string]bool)
	}
	c.dead[id] = true
}

// Dead reports whether a peer is currently marked dead.
func (c *Cache) Dead(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.dead[id]
}

// Size returns the number of live cached peers.
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.live
}

// Latency returns the current latency estimate for a peer.
func (c *Cache) Latency(id string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.lat.Estimate(id)
}

// IDs returns the live cached peer IDs sorted by ID. The order matters
// for reproducibility: the ping loop issues probes in this order, and
// each probe consumes draws from the seeded nonce and network-jitter
// sources — map-iteration order here would leak the runtime's map
// randomization into virtual timelines and break bit-for-bit
// simulation replay.
func (c *Cache) IDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	out := make([]string, 0, c.live)
	for id := range c.peers {
		if !c.dead[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Peer returns the cached info for a live peer.
func (c *Cache) Peer(id string) (proto.PeerInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	p := c.peers[id]
	if p == nil || c.dead[id] {
		return proto.PeerInfo{}, false
	}
	return *p, true
}

// Ranked returns all live cached peers sorted by ascending measured
// latency; unmeasured peers sort last (the booking step may still probe
// them). Dead peers are evicted from the reply. The ordering is
// memoized: a call that follows no cache mutation costs one O(n) copy
// instead of a full re-sort. The returned slice is the caller's to
// keep.
func (c *Cache) Ranked() []RankedPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	if !c.rankedValid {
		c.rebuildRankedLocked()
	}
	out := make([]RankedPeer, len(c.ranked))
	copy(out, c.ranked)
	return out
}

// RankedView is Ranked without the defensive copy: it returns the
// memoized slice itself. The slice is read-only and stable — cache
// mutations build a fresh slice rather than editing the memoized one in
// place — so a caller that only iterates (the booking step builds its
// candidate list from it on every submission) sees a consistent
// snapshot and saves an O(peers) copy per request. Callers that keep or
// mutate the result must use Ranked.
func (c *Cache) RankedView() []RankedPeer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	if !c.rankedValid {
		c.rebuildRankedLocked()
	}
	return c.ranked
}

// rebuildRankedLocked recomputes the memoized ordering into a fresh
// slice (never in place: outstanding RankedView snapshots stay valid).
func (c *Cache) rebuildRankedLocked() {
	ids := make([]string, 0, c.live)
	for id := range c.peers {
		if !c.dead[id] {
			ids = append(ids, id)
		}
	}
	sorted := c.lat.Rank(ids)
	ranked := make([]RankedPeer, 0, len(sorted))
	for _, id := range sorted {
		ranked = append(ranked, RankedPeer{
			Info:    *c.peers[id],
			Latency: c.lat.Estimate(id),
		})
	}
	c.ranked = ranked
	c.rankedValid = true
}

// RankedPeer pairs a cached peer with its current latency estimate.
type RankedPeer struct {
	Info    proto.PeerInfo
	Latency time.Duration
}
