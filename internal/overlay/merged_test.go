package overlay

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// manualClock is a Runtime whose time moves only when the test says:
// timer chains are dropped, because the driver runs each round itself.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time                 { return c.now }
func (c *manualClock) Schedule(time.Duration, func()) {}
func (c *manualClock) Sleep(time.Duration)            { panic("manualClock: Sleep") }
func (c *manualClock) Go(string, func())              { panic("manualClock: Go") }
func (c *manualClock) NewMailbox() vtime.Mailbox      { panic("manualClock: NewMailbox") }

// claims is one source of the reference model: host ID -> claim.
type claims map[string]claimRef

type claimRef struct {
	p    proto.PeerInfo
	seen int64
}

// modelView is the claim rule applied from scratch to the sources.
func modelView(sources map[int]claims) (peers []proto.PeerInfo, meta []entryMeta) {
	best := map[string]entryMeta{}
	info := map[string]proto.PeerInfo{}
	for shard, src := range sources {
		for id, c := range src {
			if b, ok := best[id]; !ok || beats(c.seen, shard, b.seen, b.shard) {
				best[id], info[id] = entryMeta{shard: shard, seen: c.seen}, c.p
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(best)) {
		peers, meta = append(peers, info[id]), append(meta, best[id])
	}
	return peers, meta
}

// ownShard is the driven member's index: remote shards sit on both sides
// of it, so an equal-stamp tie can go either way.
const ownShard = 2

// FuzzMergedView drives member 2 of a four-member federation and the
// reference model with one operation stream — registrations (a failover
// one when a remote shard lists the host too), keep-alives, expiry
// sweeps that also drop dead shards, gossip applies of mutated snapshots
// (entries inserted, removed, their info or stamp changed) and quiescent
// rounds — and after every operation requires the merged view to be the
// model's, and checkMerged to agree. After each apply that went
// incremental, the full merge pass redone on a copy of the view from
// before must give the same view.
func FuzzMergedView(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const hosts, ttl = 6, 8 * time.Second
		clock := &manualClock{now: time.Unix(1000, 0)}
		sn := NewSupernode(clock, nil, SupernodeConfig{Shard: ownShard, Federation: []string{"a", "b", "c", "d"},
			TTL: ttl, Intern: NewInterner()})
		sources := map[int]claims{ownShard: {}}
		owned, heard, versions := sources[ownShard], map[int]int64{}, map[int]uint64{}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		info := func(h, v int) proto.PeerInfo {
			id := fmt.Sprintf("h%d", h%hosts)
			return proto.PeerInfo{ID: id, Site: "s", MPDAddr: fmt.Sprintf("%s:%d", id, 9000+v%2), RSAddr: id + ":9001"}
		}
		for step := 0; len(ops) > 0; step++ {
			now := clock.now.UnixNano()
			switch next() % 8 {
			case 0, 1: // register
				p := info(next(), next())
				sn.register(p)
				owned[p.ID] = claimRef{p, now}
			case 2: // keep-alive
				id := info(next(), 0).ID
				if c, ok := owned[id]; sn.touch(id) != ok {
					t.Fatalf("step %d: touch(%s) disagrees with the model", step, id)
				} else if ok {
					owned[id] = claimRef{c.p, now}
				}
			case 3: // time passes, then the sweep
				clock.now = clock.now.Add(time.Duration(next()%4) * time.Second)
				cutoff := clock.now.Add(-ttl).UnixNano()
				sn.sweep()
				maps.DeleteFunc(owned, func(_ string, c claimRef) bool { return c.seen < cutoff })
				for k := range sources {
					if k != ownShard && heard[k] < cutoff {
						delete(sources, k)
						delete(heard, k)
					}
				}
			case 4, 5, 6: // gossip brings a mutated snapshot of shard k
				k := (ownShard + 1 + next()%3) % 4
				snap := maps.Clone(sources[k])
				if snap == nil {
					snap = claims{}
				}
				for n := 1 + next()%3; n > 0; n-- {
					p, stamp := info(next(), next()), now-int64(next()%2)*int64(time.Second)
					c, listed := snap[p.ID]
					switch next() % 4 {
					case 0: // an insert, or a change of both
						snap[p.ID] = claimRef{p, stamp}
					case 1:
						delete(snap, p.ID)
					case 2:
						if listed {
							snap[p.ID] = claimRef{p, c.seen}
						}
					case 3:
						if listed {
							snap[p.ID] = claimRef{c.p, stamp}
						}
					}
				}
				versions[k]++
				st := proto.ShardState{Shard: k, Version: versions[k], Stamp: now}
				for _, id := range slices.Sorted(maps.Keys(snap)) {
					st.Peers, st.Seen = append(st.Peers, snap[id].p), append(st.Seen, snap[id].seen)
				}
				sn.mu.Lock()
				first, before, beforeMeta := sn.remote[k] == nil, slices.Clone(sn.merged), slices.Clone(sn.meta)
				sn.mu.Unlock()
				gossipApply(sn, k, &proto.ShardDelta{Shards: []proto.ShardState{st}})
				sources[k], heard[k] = snap, now
				if !first {
					sn.mu.Lock()
					got, gotMeta, shared := sn.merged, sn.meta, sn.mergedShared
					sn.merged, sn.meta, sn.mergedShared = before, beforeMeta, true // not the pool's
					sn.rebuildMergedLocked(k, sn.remote[k].peers, sn.remote[k].seen)
					if !slices.Equal(sn.merged, got) || !slices.Equal(sn.meta, gotMeta) {
						t.Fatalf("step %d: incremental apply %v %v, full pass %v %v", step, got, gotMeta, sn.merged, sn.meta)
					}
					sn.merged, sn.meta, sn.mergedShared = got, gotMeta, shared
					sn.mu.Unlock()
				}
			case 7: // a quiescent round with member k
				k := (ownShard + 1 + next()%3) % 4
				gossipApply(sn, k, &proto.ShardDelta{})
				heard[k] = now
			}
			wantPeers, wantMeta := modelView(sources)
			sn.mu.Lock()
			gotPeers, gotMeta := slices.Clone(sn.merged), slices.Clone(sn.meta)
			sn.mu.Unlock()
			if !slices.Equal(gotPeers, wantPeers) || !slices.Equal(gotMeta, wantMeta) {
				t.Fatalf("step %d: merged view\n%v %v\nthe model's\n%v %v", step, gotPeers, gotMeta, wantPeers, wantMeta)
			}
			if err := sn.checkMerged(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// gossipApply hands sn a digest reply from member k the way gossipWith
// does: each held snapshot captured first, then decoded and applied.
func gossipApply(sn *Supernode, k int, d *proto.ShardDelta) {
	sn.mu.Lock()
	clear(sn.gossip.resolver.Held)
	for j, r := range sn.remote {
		sn.gossip.resolver.Held[j] = &r.spans
	}
	sn.mu.Unlock()
	sn.applyDelta(k, 0, transport.Message{Payload: proto.MustMarshal(d)})
}
