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

// FuzzCacheUpdateFrame drives two caches through one script: one takes
// every host-list frame through UpdateFrame, the other through
// Update(UnmarshalPeerList(frame)). Frames are valid lists drawn from
// a small universe (repeats, changed addresses, the cache's own host),
// corrupted ones and raw fuzz bytes; deaths, samples and reads
// interleave, so both the queued and the materialized paths run, with
// and without an interner and under a pending cap. After every step the
// two caches must hold the same state, the two decodes must agree on
// failure, and a frame that fails must have changed nothing.
func FuzzCacheUpdateFrame(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		ops := make([]byte, 300)
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
		if mode&1 != 0 {
			it = NewInterner()
		}
		frameCache, listCache := NewCache("me", latency.KindLast, 0), NewCache("me", latency.KindLast, 0)
		for _, c := range []*Cache{frameCache, listCache} {
			c.SetInterner(it)
			if mode&2 != 0 {
				c.SetPendingCap(1 + mode>>2%8)
			}
		}
		host := func() string { return cacheUniverse[next()%6] }
		for step := 0; len(ops) > 0; step++ {
			// Frames dominate, so runs reach a full snapshot queue before
			// the first read, death or sample materializes the cache.
			switch op := next() % 32; {
			case op < 24: // a host-list frame
				var frame []byte
				if k := next() % 4; k == 3 {
					n := next() % 32
					frame = ops[:min(len(ops), n)]
					ops = ops[len(frame):]
				} else {
					var l []proto.PeerInfo
					for n := next() % 6; n > 0; n-- {
						l = append(l, infoVersion(host(), next()%2))
					}
					frame = proto.MustMarshal(&proto.PeerList{Peers: l})
					switch k {
					case 1: // truncated
						frame = frame[:next()%len(frame)]
					case 2: // one byte flipped
						frame[next()%len(frame)] ^= byte(1 + next())
					}
				}
				before := cacheState(frameCache)
				err := frameCache.UpdateFrame(frame)
				list, lerr := proto.UnmarshalPeerList(frame, nil)
				if (err == nil) != (lerr == nil) {
					t.Fatalf("step %d: UpdateFrame error %v, UnmarshalPeerList error %v", step, err, lerr)
				}
				if err != nil {
					if after := cacheState(frameCache); after != before {
						t.Fatalf("step %d: a frame that failed (%v) changed the cache:\n%s\nbecame\n%s", step, err, before, after)
					}
					continue
				}
				listCache.Update(list)
			case op < 26:
				id := host()
				frameCache.MarkDead(id)
				listCache.MarkDead(id)
			case op < 28:
				id, rtt := host(), time.Duration(1+next())*time.Millisecond
				frameCache.Observe(id, rtt)
				listCache.Observe(id, rtt)
			case op < 30:
				frameCache.IDs()
				listCache.IDs()
			default: // the host re-registers: the interner learns another incarnation
				it.PeerInfo(infoVersion(host(), 2+next()%2))
			}
			if a, b := cacheState(frameCache), cacheState(listCache); a != b {
				t.Fatalf("step %d: UpdateFrame left\n%s\nUpdate left\n%s", step, a, b)
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
