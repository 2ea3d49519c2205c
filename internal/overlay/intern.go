package overlay

import (
	"bytes"
	"slices"
	"sync"

	"p2pmpi/internal/proto"
)

// Interner canonicalizes membership data across one deployment. A
// simulated world holds every daemon in one process, so the same
// PeerInfo is decoded from the wire thousands of times — once per
// supernode that gossips it, once per cache snapshot that carries it —
// and each decode allocates four fresh strings. Interning swaps every
// copy for one canonical value, which is strictly invisible to the
// simulation (the values are equal; only the backing allocations are
// shared) and cuts the K-member federation's retained state from
// O(K·world) string data to O(world).
//
// Values are interned as they arrive (PeerInfo at registration, Lookup
// by raw bytes inside the gossip decoder); whole slices — a shard's
// snapshot, the merged view — only once they have settled: members
// offer them on a quiescent gossip round (Supernode.gossipWith, the one
// call site of Snapshot and MergedView) and adopt the canonical copy.
// The interner publishes exact-length copies and never keeps a caller's
// buffer, so everything a member recycles is private by construction.
//
// The interner also keeps the newest host-list frame a cache merged,
// under a generation number that changes whenever its bytes do. A
// cache that merged a frame without changing anything records that
// generation, so a later reply byte-equal to the same generation is
// known to be a no-op merge: one byte compare instead of a walk (see
// Cache.UpdateFrame). The bytes are always compared, never a hash.
//
// All methods are safe for concurrent use from parallel shards and are
// nil-receiver safe (a nil Interner interns nothing), so the wiring can
// stay unconditional.
type Interner struct {
	// peers maps host ID -> the canonical proto.PeerInfo, striped by ID
	// hash so parallel shards rarely collide. Entries are pointers so
	// caches can share the value itself rather than copy its 64 bytes.
	// Plain maps under RWMutexes beat
	// a sync.Map here on memory, not speed: the HashTrieMap spends ~200 B
	// of node structure plus a boxed copy per entry, which at a million
	// hosts is a fifth of the whole budget. Reads vastly outnumber writes
	// (every host's info is written once and looked up K+world times),
	// and interning sits on membership paths, not the data plane, so a
	// striped read-lock is cheap.
	peers [internStripes]internStripe

	mu sync.Mutex
	// snaps holds, per federation shard, the newest settled snapshot
	// list offered world-wide. Every member that holds the same
	// (shard, version) holds a value-identical list; handing them all one
	// copy means a K-member federation retains one copy of each shard's
	// table instead of K-1.
	snaps map[int]snapEntry
	// merged is the canonical merged federation view. After gossip
	// converges every member holds the same ID-sorted union; adopting one
	// canonical slice collapses K value-identical O(world) arrays into
	// one. Members copy-on-write before any in-place edit. mergedImg is
	// its wire image, published and adopted with it.
	merged    []proto.PeerInfo
	mergedImg *proto.PeerImage

	frameMu sync.Mutex
	// frame is an exact-length copy of the newest host-list frame any
	// cache merged, frameGen its generation (0 = none yet).
	frame    []byte
	frameGen uint64
}

type snapEntry struct {
	version uint64
	peers   []proto.PeerInfo
}

const internStripes = 16

type internStripe struct {
	mu sync.RWMutex
	m  map[string]*proto.PeerInfo
}

// stripeFor hashes a host ID onto a stripe (FNV-1a, inlined — the IDs
// are short and this runs on every intern lookup).
func stripeFor[T string | []byte](id T) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % internStripes)
}

// exactClone copies s into an array of exactly its length (slices.Clone
// rounds the capacity up to a size class): what is retained for good —
// a canonical slice, a settled member's meta — carries no slack.
func exactClone[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// NewInterner creates an empty interner, one per deployment.
func NewInterner() *Interner { return &Interner{} }

// PeerInfo returns the canonical copy of p, registering p as canonical
// if its ID is new or its info changed. Equality is over the full
// struct, so a host that re-registers with different addresses replaces
// its canonical value rather than being masked by a stale one.
func (it *Interner) PeerInfo(p proto.PeerInfo) proto.PeerInfo {
	if it == nil {
		return p
	}
	return *it.ref(p)
}

// ref is PeerInfo by reference: the canonical value itself, which a
// cache entry can point at instead of copying its 64 bytes. A nil
// interner returns a private copy. A replaced value is never edited in
// place — the replacement is a new canonical pointer — so a holder of
// the old one keeps seeing the value it merged.
func (it *Interner) ref(p proto.PeerInfo) *proto.PeerInfo {
	if it == nil {
		c := new(proto.PeerInfo)
		*c = p
		return c
	}
	st := &it.peers[stripeFor(p.ID)]
	st.mu.RLock()
	c := st.m[p.ID]
	st.mu.RUnlock()
	if c != nil && *c == p {
		return c
	}
	st.mu.Lock()
	if c = st.m[p.ID]; c == nil || *c != p { // another shard may have won the race
		if st.m == nil {
			st.m = make(map[string]*proto.PeerInfo)
		}
		c = new(proto.PeerInfo)
		*c = p
		st.m[p.ID] = c
	}
	st.mu.Unlock()
	return c
}

// entryRef is ref for a host-list entry viewed in its frame: the
// canonical value when the interner holds the entry's four fields, so
// a host the world already knows costs no string, else a new one built
// with one allocation (proto.PeerEntry.Info).
func (it *Interner) entryRef(e proto.PeerEntry) *proto.PeerInfo {
	if it != nil {
		st := &it.peers[stripeFor(e.ID)]
		st.mu.RLock()
		c := st.m[string(e.ID)]
		st.mu.RUnlock()
		if c != nil && c.Site == string(e.Site) && c.MPDAddr == string(e.MPDAddr) && c.RSAddr == string(e.RSAddr) {
			return c
		}
	}
	return it.ref(e.Info())
}

// entry is entryRef by value: a nil interner builds the entry's value
// and no pointer to it.
func (it *Interner) entry(e proto.PeerEntry) proto.PeerInfo {
	if it == nil {
		return e.Info()
	}
	return *it.entryRef(e)
}

// Lookup finds the canonical PeerInfo whose four fields equal the given
// raw wire bytes, without building a string (the map index and the
// comparisons convert in place). It is the by-bytes half of PeerInfo,
// read-only: the gossip decoder resolves entries through it so a host
// the world already knows costs no allocation to learn again.
func (it *Interner) Lookup(id, site, mpdAddr, rsAddr []byte) (proto.PeerInfo, bool) {
	if it == nil {
		return proto.PeerInfo{}, false
	}
	st := &it.peers[stripeFor(id)]
	st.mu.RLock()
	c := st.m[string(id)]
	st.mu.RUnlock()
	if c == nil {
		return proto.PeerInfo{}, false
	}
	return *c, c.Site == string(site) && c.MPDAddr == string(mpdAddr) && c.RSAddr == string(rsAddr)
}

// Snapshot offers one member's settled snapshot of a shard for sharing.
// If the newest list known for the shard has the same version and equal
// content, the caller adopts it (ok) and its own buffer is free again; a
// newer version is published as an exact-length copy — the interner
// never keeps a caller's buffer, so what members recycle is private by
// construction — and adopted the same way. A stale or contradicting
// offer is declined: the caller keeps its list. An adopted slice is
// read-only (every member of the federation may hold it), which matches
// how remote snapshots are used: replaced wholesale, never edited.
// Last-seen stamps are NOT part of the snapshot: they differ between
// pulls of the same version (keep-alives refresh stamps without bumping
// the version), so each member keeps its own.
func (it *Interner) Snapshot(shard int, version uint64, list []proto.PeerInfo) (canon []proto.PeerInfo, ok bool) {
	if it == nil {
		return list, false
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	e, known := it.snaps[shard]
	if known && e.version >= version {
		// Same version: share if equal, else trust the caller's. Newer
		// stored: a stale pull, overtaken.
		if e.version == version && slices.Equal(e.peers, list) {
			return e.peers, true
		}
		return list, false
	}
	if it.snaps == nil {
		it.snaps = make(map[int]snapEntry)
	}
	e = snapEntry{version: version, peers: exactClone(list)}
	it.snaps[shard] = e
	return e.peers, true
}

// MergedView offers a settled merged view and its wire image for
// sharing and returns the canonical pair to adopt: the current one when
// the offer equals it (the post-convergence steady state), else
// exact-length copies of the offer, which become canonical. An image is
// a function of its view, so equal views have equal images. The adopted
// pair may be aliased by every other member: copy-on-write before any
// in-place edit. A nil interner declines (ok false) and the caller
// keeps its view.
func (it *Interner) MergedView(list []proto.PeerInfo, img *proto.PeerImage) (canon []proto.PeerInfo, canonImg *proto.PeerImage, ok bool) {
	if it == nil {
		return list, img, false
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.mergedImg == nil || !slices.Equal(it.merged, list) {
		it.merged = exactClone(list)
		it.mergedImg = new(proto.PeerImage)
		it.mergedImg.CopyFrom(img)
	}
	return it.merged, it.mergedImg, true
}

// sharesImage reports whether img is the canonical merged image.
func (it *Interner) sharesImage(img *proto.PeerImage) bool {
	if it == nil {
		return false
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return img == it.mergedImg
}

// holdsFrame reports whether frame is byte for byte the newest merged
// frame and gen is that frame's generation.
func (it *Interner) holdsFrame(frame []byte, gen uint64) bool {
	if it == nil {
		return false
	}
	it.frameMu.Lock()
	defer it.frameMu.Unlock()
	return gen == it.frameGen && bytes.Equal(frame, it.frame)
}

// publishFrame makes a validated host-list frame the newest one and
// returns its generation: the current one when the bytes are equal,
// else a new one over a copy (the caller's buffer is never kept). A nil
// interner returns 0, which no cache can skip on.
func (it *Interner) publishFrame(frame []byte) uint64 {
	if it == nil {
		return 0
	}
	it.frameMu.Lock()
	defer it.frameMu.Unlock()
	if bytes.Equal(frame, it.frame) {
		return it.frameGen
	}
	if len(it.frame) != len(frame) {
		it.frame = make([]byte, len(frame))
	}
	copy(it.frame, frame)
	it.frameGen++
	return it.frameGen
}
