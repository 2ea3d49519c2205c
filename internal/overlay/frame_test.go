package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/latency"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/wire"
)

// cacheState renders everything a merge can touch — the table by
// value, the dead marks, the live count, the queued snapshots, the
// materialized and ranking flags — in a canonical order.
func cacheState(c *Cache) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if p := c.peers[id]; p.ID != id {
			fmt.Fprintf(&b, "key %q holds %q\n", id, p.ID)
		}
		fmt.Fprintf(&b, "peer %+v\n", *c.peers[id])
	}
	dead := make([]string, 0, len(c.dead))
	for id, d := range c.dead {
		if d {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	fmt.Fprintf(&b, "dead %q live %d\n", dead, c.live)
	for _, l := range c.pending {
		fmt.Fprintf(&b, "pending %+v\n", l)
	}
	fmt.Fprintf(&b, "pendingN %d materialized %v rankedValid %v\n", c.pendingN, c.materialized, c.rankedValid)
	return b.String()
}

// modelPeerList is the naive host-list decoder the fuzz oracle reads
// frames with: the type byte, the count, four String reads per entry,
// and no byte left over.
func modelPeerList(b []byte) (l []proto.PeerInfo, err error) {
	d := wire.NewDecoder(b)
	if t, n := proto.Type(d.U8()), d.Int(); t == proto.TPeerList && n >= 0 {
		for ; n > 0 && d.Err() == nil; n-- {
			l = append(l, proto.PeerInfo{ID: d.String(), Site: d.String(), MPDAddr: d.String(), RSAddr: d.String()})
		}
		return l, d.Finish()
	}
	return nil, wire.ErrCorrupt
}

// FuzzCacheUpdateFrame drives two pairs of caches through one script:
// in each pair one cache takes every host-list frame through
// UpdateFrame, the other through Update(modelPeerList(frame)).
// Frames are valid lists drawn from a small universe (repeats, changed
// addresses, the cache's own host), corrupted ones, raw fuzz bytes and
// byte-for-byte replays of recent frames; each goes to one pair or
// both. Deaths, samples, reads and lists merged through Update
// interleave, so both the queued and the materialized paths run, with
// and without an interner and under a pending cap. The two frame
// caches share the interner, so one publishes frames the other may
// skip on. After every step the caches of a pair must hold the same
// state, the two decodes must agree on failure, and a frame that fails
// must have changed nothing, the cache's record of its last no-op
// merge included.
func FuzzCacheUpdateFrame(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		mode := next()
		var it *Interner
		if mode%4 != 0 {
			it = NewInterner()
		}
		type pair struct{ frame, list *Cache }
		var pairs [2]pair
		for i, self := range []string{"me", cacheUniverse[1]} {
			pairs[i] = pair{NewCache(self, latency.KindLast, 0), NewCache(self, latency.KindLast, 0)}
			for _, c := range []*Cache{pairs[i].frame, pairs[i].list} {
				c.SetInterner(it)
				if mode&2 != 0 {
					c.SetPendingCap(1 + mode>>2%8)
				}
			}
		}
		host := func() string { return cacheUniverse[next()%6] }
		var listed []proto.PeerInfo // the newest list drawn
		list := func() []proto.PeerInfo {
			listed = nil
			for n := next() % 6; n > 0; n-- {
				listed = append(listed, infoVersion(host(), next()%2))
			}
			return listed
		}
		var recent [][]byte // the last few frames, valid or not
		for step := 0; len(ops) > 0; step++ {
			// Frames dominate, so runs reach a full snapshot queue before
			// the first read, death or sample materializes the cache.
			switch op := next() % 32; {
			case op < 20: // a host-list frame
				var frame []byte
				switch k := next() % 16; {
				case k >= 9 && len(recent) > 0:
					// Mostly the newest frame again: a periodic refresh.
					frame = recent[len(recent)-1]
					if k == 15 {
						frame = recent[next()%len(recent)]
					}
				case k == 8:
					n := next() % 32
					frame = ops[:min(len(ops), n)]
					ops = ops[len(frame):]
				default:
					frame = proto.MustMarshal(&proto.PeerList{Peers: list()})
					switch k {
					case 6: // truncated
						frame = frame[:next()%len(frame)]
					case 7: // one byte flipped
						frame[next()%len(frame)] ^= byte(1 + next())
					}
				}
				if recent = append(recent, frame); len(recent) > 4 {
					recent = recent[1:]
				}
				to := pairs[:]
				if w := next() % 3; w < 2 {
					to = pairs[w : w+1]
				}
				for _, p := range to {
					before, gen := cacheState(p.frame), p.frame.frameGen
					err := p.frame.UpdateFrame(frame)
					l, lerr := modelPeerList(frame)
					if (err == nil) != (lerr == nil) {
						t.Fatalf("step %d: UpdateFrame error %v, model error %v", step, err, lerr)
					}
					if err != nil {
						if after := cacheState(p.frame); after != before || p.frame.frameGen != gen {
							t.Fatalf("step %d: a frame that failed (%v) changed the cache (record %d -> %d):\n%s\nbecame\n%s", step, err, gen, p.frame.frameGen, before, after)
						}
						continue
					}
					p.list.Update(l)
				}
			case op < 23: // a list merged through Update by every cache
				l := list()
				for _, p := range pairs {
					p.frame.Update(l)
					p.list.Update(l)
				}
			case op < 26: // a death, mostly of a host the newest list holds
				id := host()
				if k := next(); k%4 != 0 && len(listed) > 0 {
					id = listed[k%len(listed)].ID
				}
				for _, p := range pairs {
					p.frame.MarkDead(id)
					p.list.MarkDead(id)
				}
			case op < 28:
				id, rtt := host(), time.Duration(1+next())*time.Millisecond
				for _, p := range pairs {
					p.frame.Observe(id, rtt)
					p.list.Observe(id, rtt)
				}
			case op < 30:
				ranked := next()%2 == 0
				for _, p := range pairs {
					for _, c := range []*Cache{p.frame, p.list} {
						if ranked {
							c.RankedView()
						} else {
							c.IDs()
						}
					}
				}
			default: // the host re-registers: the interner learns another incarnation
				it.PeerInfo(infoVersion(host(), 2+next()%2))
			}
			for i, p := range pairs {
				if a, b := cacheState(p.frame), cacheState(p.list); a != b {
					t.Fatalf("step %d, pair %d: UpdateFrame left\n%s\nUpdate left\n%s", step, i, a, b)
				}
			}
		}
	})
}

// TestUpdateFrameHeldEntryIsFree: once materialized, a refresh that
// repeats what the cache holds costs no allocation — one map lookup per
// entry, no string built — and a changed entry costs one.
func TestUpdateFrameHeldEntryIsFree(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	var l []proto.PeerInfo
	for _, id := range cacheUniverse[1:] {
		l = append(l, infoVersion(id, 0))
	}
	frame := proto.MustMarshal(&proto.PeerList{Peers: l})
	if err := c.UpdateFrame(frame); err != nil {
		t.Fatal(err)
	}
	c.IDs() // materialize
	if allocs := testing.AllocsPerRun(50, func() {
		if err := c.UpdateFrame(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("an unchanged refresh of %d entries cost %v allocs, want 0", len(l), allocs)
	}
	// Each run flips one host between two incarnations.
	var frames [2][]byte
	for v := range frames {
		l[3] = infoVersion(l[3].ID, v)
		frames[v] = proto.MustMarshal(&proto.PeerList{Peers: l})
	}
	runs := 0
	if allocs := testing.AllocsPerRun(50, func() {
		runs++
		if err := c.UpdateFrame(frames[runs%2]); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("one changed entry cost %v allocs, want at most 2 (its strings and its value)", allocs)
	}
	l[3] = infoVersion(l[3].ID, runs%2)
	if p, _ := c.Peer(l[3].ID); p != l[3] {
		t.Fatalf("changed entry reads %+v, want %+v", p, l[3])
	}
}

// TestQueuedFrameAllocs: an unread cache queues a reply by walking the
// frame, so when the interner holds every host its one allocation is
// the pending copy, capped or not.
func TestQueuedFrameAllocs(t *testing.T) {
	it := NewInterner()
	l := make([]proto.PeerInfo, 64)
	for i := range l {
		l[i] = it.PeerInfo(peer(fmt.Sprintf("peer%05d", i)))
	}
	frame := proto.MustMarshal(&proto.PeerList{Peers: l})
	for _, keep := range []int{2, len(l)} {
		c := NewCache("me", latency.KindLast, 0)
		c.SetInterner(it)
		c.SetPendingCap(keep % len(l)) // 0: uncapped
		allocs := testing.AllocsPerRun(50, func() {
			c.pending, c.pendingN = c.pending[:0], 0
			c.UpdateFrame(frame)
		})
		if allocs != 1 || len(c.pending) != 1 || !slices.Equal(c.pending[0], l[:keep]) {
			t.Errorf("keeping %d of %d known hosts cost %v allocs, want 1 (the pending copy), and queued %+v", keep, len(l), allocs, c.pending)
		}
	}
}

// BenchmarkCacheUpdateFrame measures a periodic host-list refresh of
// 128 entries into a materialized cache wired to an interner, as every
// MPD of a simulated world is: same repeats one frame, changed
// alternates two frames that differ in one host's addresses.
func BenchmarkCacheUpdateFrame(b *testing.B) {
	l := make([]proto.PeerInfo, 128)
	for i := range l {
		l[i] = peer(fmt.Sprintf("peer%05d", i))
	}
	var frames [2][]byte
	for v := range frames {
		l[5].MPDAddr = fmt.Sprintf("peer00005:%d", 9000+v)
		frames[v] = proto.MustMarshal(&proto.PeerList{Peers: l})
	}
	for _, bc := range []struct {
		name  string
		width int
	}{{"same", 1}, {"changed", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewCache("me", latency.KindLast, 0)
			c.SetInterner(NewInterner())
			c.IDs() // materialize
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.UpdateFrame(frames[i%bc.width]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
