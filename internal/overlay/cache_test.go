package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"p2pmpi/internal/latency"
	"p2pmpi/internal/proto"
)

// refCache is the naive model of Cache: a plain map, a dead set and a
// live count, merged eagerly. It mirrors the one rule deferral makes
// visible — an unread cache under a pending cap keeps only the leading
// entries its budget allows — and nothing else.
type refCache struct {
	self  string
	peers map[string]proto.PeerInfo
	dead  map[string]bool
	live  int
	lat   map[string]time.Duration // KindLast: the latest sample

	limit, snaps, kept int  // pending-cap bookkeeping while unread
	read               bool // a reader materialized the cache
}

func newRefCache(self string, limit int) *refCache {
	return &refCache{self: self, peers: map[string]proto.PeerInfo{}, dead: map[string]bool{},
		lat: map[string]time.Duration{}, limit: limit}
}

func (r *refCache) update(list []proto.PeerInfo) {
	if !r.read && r.snaps < maxPendingSnapshots {
		if r.limit > 0 {
			room := max(0, r.limit-r.kept)
			if room == 0 {
				return
			}
			list = list[:min(len(list), room)]
		}
		r.snaps++
		r.kept += len(list)
	}
	for _, p := range list {
		if p.ID == r.self {
			continue
		}
		if _, known := r.peers[p.ID]; !known || r.dead[p.ID] {
			r.live++
		}
		r.peers[p.ID] = p
		delete(r.dead, p.ID)
	}
}

func (r *refCache) markDead(id string) {
	r.read = true
	if _, known := r.peers[id]; known && !r.dead[id] {
		r.live--
	}
	delete(r.lat, id)
	r.dead[id] = true
}

func (r *refCache) observe(id string, rtt time.Duration) {
	r.read = true
	if _, known := r.peers[id]; known && !r.dead[id] {
		r.lat[id] = rtt
	}
}

func (r *refCache) estimate(id string) time.Duration {
	if l, ok := r.lat[id]; ok {
		return l
	}
	return latency.Unknown
}

func (r *refCache) ids() []string {
	out := []string{}
	for id := range r.peers {
		if !r.dead[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (r *refCache) ranked() []RankedPeer {
	ids := r.ids()
	sort.SliceStable(ids, func(i, j int) bool {
		if ei, ej := r.estimate(ids[i]), r.estimate(ids[j]); ei != ej {
			return ei < ej
		}
		return ids[i] < ids[j]
	})
	out := make([]RankedPeer, len(ids))
	for i, id := range ids {
		out[i] = RankedPeer{Info: r.peers[id], Latency: r.estimate(id)}
	}
	return out
}

// cacheOp is one step of a differential run.
type cacheOp struct {
	kind string // "update", "dead", "observe", "read", "reregister"
	list []proto.PeerInfo
	id   string
	rtt  time.Duration
	v    int // reregister: the incarnation the interner learns
}

// cacheUniverse is the set of hosts a run draws from, the cache's own
// identity "me" first.
var cacheUniverse = func() []string {
	ids := []string{"me"}
	for i := range 24 {
		ids = append(ids, fmt.Sprintf("p%02d", i))
	}
	return ids
}()

// infoVersion is host id's info in one of two incarnations (a host that
// re-registered with new addresses).
func infoVersion(id string, v int) proto.PeerInfo {
	return proto.PeerInfo{ID: id, Site: "s" + id[len(id)-1:],
		MPDAddr: fmt.Sprintf("%s:%d", id, 9000+10*v), RSAddr: fmt.Sprintf("%s:%d", id, 9001+10*v)}
}

// genCacheOps draws a seeded sequence of snapshots — repeated verbatim,
// mutated, subsets, fresh ones, some listing the cache's own host —
// interleaved with deaths, ping samples, reads and re-registrations the
// cache does not see: the interner learns an incarnation no snapshot
// carries, replacing the canonical value the cache may point at.
func genCacheOps(rng *rand.Rand, n int) []cacheOp {
	var prev []proto.PeerInfo
	incarnation := 1
	fresh := func() []proto.PeerInfo {
		var l []proto.PeerInfo
		for _, id := range cacheUniverse[1:] {
			if rng.Intn(3) > 0 {
				l = append(l, infoVersion(id, rng.Intn(2)))
			}
		}
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		return l
	}
	ops := make([]cacheOp, 0, n)
	for range n {
		host := cacheUniverse[rng.Intn(len(cacheUniverse))]
		switch k := rng.Intn(11); {
		case k < 6:
			var l []proto.PeerInfo
			switch {
			case prev == nil || k == 0:
				l = fresh()
			case k <= 2: // the periodic refresh: the same reply again
				l = slices.Clone(prev)
			case k == 3: // one host re-registered with new addresses
				l = slices.Clone(prev)
				if len(l) > 0 {
					i := rng.Intn(len(l))
					v := 0
					if l[i] == infoVersion(l[i].ID, 0) {
						v = 1
					}
					l[i] = infoVersion(l[i].ID, v)
				}
			case k == 4: // a bounded reply window
				l = slices.Clone(prev[:rng.Intn(len(prev)+1)])
			default: // the supernode lists the cache's own host too
				l = append(slices.Clone(prev), infoVersion("me", 0))
				rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
			}
			prev = l
			ops = append(ops, cacheOp{kind: "update", list: l})
		case k < 8:
			ops = append(ops, cacheOp{kind: "dead", id: host})
		case k < 9:
			ops = append(ops, cacheOp{kind: "observe", id: host, rtt: time.Duration(1+rng.Intn(50)) * time.Millisecond})
		case k < 10:
			ops = append(ops, cacheOp{kind: "read"})
		default:
			incarnation++
			ops = append(ops, cacheOp{kind: "reregister", id: host, v: incarnation})
		}
	}
	return ops
}

// canonical is the interner's current value for id, by reference.
func canonical(it *Interner, id string) *proto.PeerInfo {
	c, _ := lookup(it, id)
	return c.p
}

// recordIDs names the host of each of c's records, by record position,
// through the host indices its interner handed out.
func recordIDs(c *Cache) map[int32]string {
	ids := map[int32]string{}
	if c.tab == nil || c.intern == nil {
		return ids
	}
	for s := range c.intern.peers {
		st := &c.intern.peers[s]
		st.mu.RLock()
		for id, h := range st.m {
			if i, ok := c.tab.slot[h.idx]; ok {
				ids[i] = id
			}
		}
		st.mu.RUnlock()
	}
	return ids
}

// applyCacheOps replays ops into a fresh Cache and model. Snapshots are
// handed over in a scratch slice that is scribbled on afterwards, the way
// callers recycle their decode buffers.
func applyCacheOps(ops []cacheOp, limit int) (*Cache, *refCache, *Interner) {
	it := NewInterner()
	c := NewCache("me", latency.KindLast, 0)
	c.SetInterner(it)
	c.SetPendingCap(limit)
	r := newRefCache("me", limit)
	for _, op := range ops {
		switch op.kind {
		case "update":
			scratch := slices.Clone(op.list)
			c.Update(scratch)
			for i := range scratch {
				scratch[i] = proto.PeerInfo{ID: "garbage"}
			}
			r.update(op.list)
		case "dead":
			c.MarkDead(op.id)
			r.markDead(op.id)
		case "observe":
			c.Observe(op.id, op.rtt)
			r.observe(op.id, op.rtt)
		case "read":
			c.RankedView()
			r.read = true
		case "reregister":
			it.PeerInfo(infoVersion(op.id, op.v))
		}
	}
	return c, r, it
}

// TestCacheMatchesReferenceModel drives Cache and the naive model with
// the same seeded operation sequences and compares every reader after
// every step. Comparing reads the cache, and a read materializes it, so
// each step's state is rebuilt from the prefix: a pending-capped cache is
// checked in exactly the unread state the sequence left it in.
//
// The cache holds its entries by reference to the interner's canonical
// values. The model never sees a re-registration, so Peer and Ranked
// must keep returning the value the cache merged after the interner
// replaced it; and an entry whose value is the canonical one must be the
// canonical pointer, not a copy of it.
func TestCacheMatchesReferenceModel(t *testing.T) {
	reregistered := 0
	for _, limit := range []int{0, 12} {
		for seed := int64(1); seed <= 8; seed++ {
			ops := genCacheOps(rand.New(rand.NewSource(seed)), 60)
			for step := range len(ops) + 1 {
				c, r, it := applyCacheOps(ops[:step], limit)
				where := fmt.Sprintf("pending cap %d seed %d after %d steps", limit, seed, step)
				if got, want := c.IDs(), r.ids(); !slices.Equal(got, want) {
					t.Fatalf("%s: IDs = %v, want %v", where, got, want)
				}
				for _, rec := range c.tab.recs {
					p := rec.info
					if p == nil {
						continue // marked dead
					}
					id := p.ID
					switch canon := canonical(it, id); {
					case *p == *canon && p != canon:
						t.Fatalf("%s: entry %s copies the canonical value instead of pointing at it", where, id)
					case *p != *canon && !r.dead[id]:
						reregistered++ // a stale entry the readers below must still return
					}
				}
				if got, want := c.Size(), r.live; got != want {
					t.Fatalf("%s: Size = %d, want %d", where, got, want)
				}
				for _, id := range cacheUniverse {
					got, gotOK := c.Peer(id)
					want, wantOK := r.peers[id]
					wantOK = wantOK && !r.dead[id]
					if !wantOK {
						want = proto.PeerInfo{}
					}
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: Peer(%s) = %v %v, want %v %v", where, id, got, gotOK, want, wantOK)
					}
					if got, want := c.Dead(id), r.dead[id]; got != want {
						t.Fatalf("%s: Dead(%s) = %v, want %v", where, id, got, want)
					}
				}
				if got, want := c.Ranked(), r.ranked(); !slices.Equal(got, want) {
					t.Fatalf("%s: Ranked = %v, want %v", where, got, want)
				}
			}
		}
	}
	if reregistered == 0 {
		t.Fatal("no live entry was ever replaced in the interner under the cache")
	}
}

// TestCacheKeysShareInternedStrings: a merged record's ID is the
// interned one, not the decoded copy the snapshot carried — otherwise
// every cache retains its own copy of every host name (9.5 MB of live
// heap on the 350-host Grid'5000 world).
func TestCacheKeysShareInternedStrings(t *testing.T) {
	it := NewInterner()
	c := NewCache("me", latency.KindLast, 0)
	c.SetInterner(it)
	c.Size() // materialized: snapshots merge straight into the table
	var canon []proto.PeerInfo
	for i := range 8 {
		canon = append(canon, it.PeerInfo(infoVersion(fmt.Sprintf("p%02d", i), 0)))
	}
	decoded := make([]proto.PeerInfo, len(canon))
	for i, p := range canon {
		decoded[i] = proto.PeerInfo{ID: strings.Clone(p.ID), Site: strings.Clone(p.Site),
			MPDAddr: strings.Clone(p.MPDAddr), RSAddr: strings.Clone(p.RSAddr)}
	}
	c.Update(decoded)
	for _, rec := range c.tab.recs {
		id := rec.info.ID
		i := slices.IndexFunc(canon, func(p proto.PeerInfo) bool { return p.ID == id })
		if unsafe.StringData(id) != unsafe.StringData(canon[i].ID) {
			t.Fatalf("entry %s keeps its own copy of the host name", id)
		}
	}
}

// TestCacheUnchangedRefreshIsFree: re-merging a snapshot the cache
// already holds — the common periodic refresh — allocates nothing and
// leaves the memoized ranking in place.
func TestCacheUnchangedRefreshIsFree(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.SetInterner(NewInterner())
	snap := make([]proto.PeerInfo, 512)
	for i := range snap {
		snap[i] = infoVersion(fmt.Sprintf("peer%03d", i), 0)
	}
	c.Update(snap)
	for i := 0; i < len(snap); i += 3 {
		c.Observe(snap[i].ID, time.Duration(1+i)*time.Microsecond)
	}
	view := c.RankedView() // materialized and memoized
	if allocs := testing.AllocsPerRun(20, func() { c.Update(snap) }); allocs != 0 {
		t.Fatalf("re-merging an unchanged snapshot allocated %.1f times, want 0", allocs)
	}
	if again := c.RankedView(); len(again) != len(view) || &again[0] != &view[0] {
		t.Fatal("an unchanged snapshot rebuilt the memoized ranking")
	}
}
