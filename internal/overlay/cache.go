package overlay

import (
	"cmp"
	"slices"
	"sort"
	"strings"
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
// and retaining the record lets the dead→alive transition be an O(1)
// flip instead of a full re-learn.
//
// Every daemon of a world caches every host it pings, so the table
// grows with the square of the world: it is one 16-byte record per
// known peer (peerRec), addressed by the peer's host index (Interner),
// with the latency estimate inline and no string key. Nothing is
// ordered by an index: IDs and Ranked sort by ID string.
type Cache struct {
	mu     sync.Mutex
	selfID string
	// tab is the merged table, nil until the cache materializes (see
	// pending): most caches of a large world are never read and carry
	// none.
	tab *peerTable
	lat latency.Table // the estimate codec; embedded by value

	// pending holds snapshots accepted by Update but not yet merged.
	// Merging a host list is O(list) table work, and on a multi-thousand-
	// host world most caches belong to compute peers that take snapshots
	// at every registration yet are only ever *read* on the submitter —
	// so until the first read, Update just queues a copy of the list.
	// Replaying the snapshots in arrival order on first read produces
	// exactly the state eager merging would have; a cache nobody reads
	// never builds its table at all. Once materialized (a reader
	// flushed), merges go straight to the table again. A Shared reply
	// (UpdateShared) that no pending cap truncates is queued as its
	// frame, which every unread cache of the world then holds by
	// reference instead of a copy each.
	pending []pendingSnap

	// intern canonicalizes the PeerInfo values this cache retains
	// (pending copies and the merged table) against the world-shared
	// Interner — equal values, shared backing strings — and numbers the
	// hosts. A cache without one (the real tier) makes a private one on
	// first use, so its host indices are its own.
	intern *Interner
	// frameGen is the interner generation of the last frame this
	// materialized cache merged without changing anything, 0 for none.
	// Every edit of the table clears it (setLocked, MarkDead), so while
	// it is set, merging that frame again is a no-op.
	frameGen uint64
	// pendingCap bounds the total entries retained across queued
	// snapshots while unmaterialized (0 = unbounded); see SetPendingCap.
	pendingCap int
	pendingN   int
}

// peerTable is a materialized cache's table.
type peerTable struct {
	// recs holds one record per peer the cache has listed or marked
	// dead, in first-seen order; slot maps a host index to its record.
	recs []peerRec
	slot map[int32]int32
	live int // records not marked dead

	// ranked memoizes the ascending-latency ordering. Submissions call
	// Ranked far more often than pings and snapshots mutate the cache,
	// so the O(n log n) sort runs only when the flag says the cached
	// slice went stale — every liveness or latency transition clears it:
	// Observe, Update (new info or a dead→alive revival) and MarkDead.
	ranked      []RankedPeer
	rankedValid bool
}

// peerRec is one known peer: the canonical value the cache merged last,
// nil while the peer is marked dead (a dead record is read by no one and
// a revival sets it again), and its latency estimate.
type peerRec struct {
	info *proto.PeerInfo
	rtt  latency.Sample
}

// pendingSnap is one queued snapshot: a copy of a list, or a Shared
// host-list frame, validated and held by reference.
type pendingSnap struct {
	list  []proto.PeerInfo
	frame []byte
}

// entries returns a reader of a queued frame.
func (s *pendingSnap) entries() proto.PeerListReader {
	r, _ := proto.ReadPeerList(s.frame) // validated when it was queued
	return r
}

// NewCache creates a cache for the peer with the given identity. The
// estimator kind controls how ping samples condense into the ordering
// latency (the paper's behaviour is KindLast). The table is built on
// first read: a compute peer whose cache is never consulted carries no
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

// interner returns the cache's interner, making a private one if it has
// none.
func (c *Cache) interner() *Interner {
	if c.intern == nil {
		c.intern = NewInterner()
	}
	return c.intern
}

// find returns the position of host id's record, if the materialized
// cache has one.
func find[T string | []byte](c *Cache, id T) (int32, bool) {
	if len(c.tab.recs) == 0 {
		return 0, false
	}
	h, ok := lookup(c.interner(), id)
	if !ok {
		return 0, false
	}
	i, ok := c.tab.slot[h.idx]
	return i, ok
}

// add appends a record for the host with index idx, marked dead, and
// returns its position.
func (t *peerTable) add(idx int32) int32 {
	i := int32(len(t.recs))
	t.recs = append(t.recs, peerRec{})
	if t.slot == nil {
		t.slot = make(map[int32]int32)
	}
	t.slot[idx] = i
	return i
}

// size makes room for the records a merge of an n-entry list may add.
// A list is usually the whole table, so the records end up at most one
// entry (the cache's own host) longer than the peers known, where
// growing by appends would leave up to half the array spare. A merge
// walks the whole list anyway, so the copy costs no extra order.
func (t *peerTable) size(n int) {
	if n > cap(t.recs) {
		t.recs = append(make([]peerRec, 0, n), t.recs...)
	}
	if t.slot == nil {
		t.slot = make(map[int32]int32, n)
	}
}

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
func (c *Cache) UpdateFrame(frame []byte) error { return c.updateFrame(frame, false) }

// UpdateShared is UpdateFrame for the payload of a Shared message
// (transport.Shared), whose bytes never change: an unread cache that
// keeps every entry queues the frame itself instead of a copy, so the
// caches of a world that all receive the supernode's one whole-table
// frame hold one copy of it between them. Under a pending cap it copies
// the few entries it keeps, as UpdateFrame does, rather than pin the
// whole frame for them; a materialized cache merges it exactly as
// UpdateFrame does.
func (c *Cache) UpdateShared(frame []byte) error { return c.updateFrame(frame, true) }

func (c *Cache) updateFrame(frame []byte, shared bool) error {
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
		if shared && c.keepsLocked() < 0 {
			c.pending = append(c.pending, pendingSnap{frame: frame})
			c.pendingN += r.Len()
			return nil
		}
		cp := c.reserveLocked(r.Len())
		for i := range cp {
			e, _ := r.Next()
			cp[i] = c.interner().entry(e)
		}
		return nil
	}
	c.flushLocked()
	// Recorded before the walk: an entry the walk changes clears it, so
	// it survives only a merge that was a no-op.
	c.frameGen = c.interner().publishFrame(frame)
	c.mergeFrameLocked(&r)
	return nil
}

// mergeFrameLocked applies the entries of a host-list frame to the
// materialized table, building a string only for an entry that neither
// the table nor the interner holds, equal.
func (c *Cache) mergeFrameLocked(r *proto.PeerListReader) {
	c.tab.size(r.Len())
	for e, ok := r.Next(); ok; e, ok = r.Next() {
		if c.selfID == string(e.ID) {
			continue
		}
		i, known := find(c, e.ID)
		if known && c.tab.recs[i].info != nil && sameEntry(c.tab.recs[i].info, e) {
			continue
		}
		info, idx := c.interner().entryRef(e)
		c.setLocked(i, known, info, idx)
	}
}

// queuesLocked reports whether the next snapshot is queued rather than
// merged: the cache was never read, and the queue has room (see
// pending).
func (c *Cache) queuesLocked() bool {
	return c.tab == nil && len(c.pending) < maxPendingSnapshots
}

// queueLocked defers a snapshot's merge. The snapshot must be copied —
// callers reuse pooled scratch slices — and the copy is interned
// (shared strings).
func (c *Cache) queueLocked(list []proto.PeerInfo) {
	cp := c.reserveLocked(len(list))
	for i := range cp {
		cp[i] = c.interner().PeerInfo(list[i])
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
	c.pending = append(c.pending, pendingSnap{list: cp})
	c.pendingN += n
	return cp
}

// keepsLocked returns how many leading entries of the next snapshot
// the cache will look at, or -1 for all of them: an unread cache under
// a pending cap keeps only its remaining entry budget, so UpdateFrame
// need not walk the rest of the reply.
func (c *Cache) keepsLocked() int {
	if c.tab != nil || c.pendingCap <= 0 || len(c.pending) >= maxPendingSnapshots {
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
	c.tab.size(len(list))
	for _, p := range list {
		if p.ID == c.selfID {
			continue
		}
		i, known := find(c, p.ID)
		if known && c.tab.recs[i].info != nil && *c.tab.recs[i].info == p {
			continue
		}
		info, idx := c.interner().ref(p)
		c.setLocked(i, known, info, idx)
	}
}

// setLocked enters a new or changed entry, live: record i when known,
// else a new record for host index idx.
func (c *Cache) setLocked(i int32, known bool, info *proto.PeerInfo, idx int32) {
	t := c.tab
	if !known {
		i = t.add(idx)
	}
	if t.recs[i].info == nil {
		t.live++
	}
	t.recs[i].info = info
	t.rankedValid = false
	c.frameGen = 0
}

// flushLocked materializes the table, replaying deferred snapshots in
// arrival order. Every reader goes through it.
func (c *Cache) flushLocked() {
	if c.tab != nil {
		return
	}
	c.tab = new(peerTable)
	pending := c.pending
	c.pending = nil
	c.pendingN = 0
	for i := range pending {
		if pending[i].frame == nil {
			c.mergeLocked(pending[i].list)
			continue
		}
		r := pending[i].entries()
		c.mergeFrameLocked(&r)
	}
}

// Observe records a ping round-trip sample for a live peer.
func (c *Cache) Observe(id string, rtt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	if i, ok := find(c, id); ok && c.tab.recs[i].info != nil {
		c.lat.Add(&c.tab.recs[i].rtt, rtt)
		c.tab.rankedValid = false
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
	t := c.tab
	i, known := find(c, id)
	switch {
	case !known:
		i = t.add(c.interner().index(id))
	case t.recs[i].info != nil:
		t.recs[i].info = nil
		t.rankedValid = false
		t.live--
	}
	c.lat.Clear(&t.recs[i].rtt)
	c.frameGen = 0
}

// Dead reports whether a peer is currently marked dead.
func (c *Cache) Dead(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	i, ok := find(c, id)
	return ok && c.tab.recs[i].info == nil
}

// Size returns the number of live cached peers.
func (c *Cache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.tab.live
}

// Latency returns the current latency estimate for a peer.
func (c *Cache) Latency(id string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	if i, ok := find(c, id); ok {
		return c.lat.Value(c.tab.recs[i].rtt)
	}
	return latency.Unknown
}

// IDs returns the live cached peer IDs sorted by ID. The order matters
// for reproducibility: the ping loop issues probes in this order, and
// each probe consumes draws from the seeded nonce and network-jitter
// sources — an order that followed the table's layout would leak
// arrival order into virtual timelines and break bit-for-bit
// simulation replay across shard counts.
func (c *Cache) IDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	out := make([]string, 0, c.tab.live)
	for _, r := range c.tab.recs {
		if r.info != nil {
			out = append(out, r.info.ID)
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
	i, ok := find(c, id)
	if !ok || c.tab.recs[i].info == nil {
		return proto.PeerInfo{}, false
	}
	return *c.tab.recs[i].info, true
}

// Ranked returns all live cached peers sorted by ascending measured
// latency; unmeasured peers sort last (the booking step may still probe
// them). Dead peers are evicted from the reply. The ordering is
// memoized: a call that follows no cache mutation costs one O(n) copy
// instead of a full re-sort. The returned slice is the caller's to
// keep.
func (c *Cache) Ranked() []RankedPeer {
	return slices.Clone(c.RankedView())
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
	t := c.tab
	if !t.rankedValid {
		c.rebuildRankedLocked()
	}
	return t.ranked
}

// rebuildRankedLocked recomputes the memoized ordering into a fresh
// slice (never in place: outstanding RankedView snapshots stay valid):
// ascending latency, unmeasured peers last, ties by ID.
func (c *Cache) rebuildRankedLocked() {
	t := c.tab
	ranked := make([]RankedPeer, 0, t.live)
	for _, r := range t.recs {
		if r.info != nil {
			ranked = append(ranked, RankedPeer{Info: *r.info, Latency: c.lat.Value(r.rtt)})
		}
	}
	slices.SortFunc(ranked, func(a, b RankedPeer) int {
		if a.Latency != b.Latency {
			return cmp.Compare(a.Latency, b.Latency)
		}
		return strings.Compare(a.Info.ID, b.Info.ID)
	})
	t.ranked = ranked
	t.rankedValid = true
}

// RankedPeer pairs a cached peer with its current latency estimate.
type RankedPeer struct {
	Info    proto.PeerInfo
	Latency time.Duration
}
