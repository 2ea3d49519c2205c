package simnet

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"p2pmpi/internal/vtime"
)

// Sharded mode: the barrier side of the frame path.
//
// A frame whose hosts share a shard lands inline, exactly as on an
// unsharded net (frame.go). A frame whose endpoints live on different
// shards cannot touch the receiving shard's state from the sender's
// event loop, so its two halves run at different moments:
//
//   - at send time (sender's shard): depart reserves the sender's
//     NIC-out, draws the flow's jitter, and route appends the xmsg to
//     the shard's outbox;
//   - at the barrier (driver goroutine, all shards parked): mergeCross
//     sorts every outbox entry by (send time, sender host rank,
//     emission seq) and lands them in that global order — replaying the
//     backbone-pipe and receiver-NIC reservations and scheduling the
//     delivery event on the receiving shard's heap.
//
// The merge order is a superset of the sequential execution order for
// the cross traffic, so pipe and NIC frontiers advance identically; the
// rank tiebreak reproduces the sequential boot spawn order for the
// (measure-zero outside vtime 0, overwhelming at vtime 0) case of equal
// send timestamps. Each crossing message also carries the sender's
// post-draw jitter-stream state, which the receiver adopts on delivery —
// for the middleware's strictly alternating request/reply conns this
// reproduces the sequential shared-stream draw order exactly.
//
// The conservative lookahead guarantees every merged arrival lands at or
// after the shards' committed horizon; VTIME_CHECK mode asserts it.

// ShardConfig describes the static world layout NewSharded freezes.
type ShardConfig struct {
	// SiteShard maps every site to its shard index. All hosts of a site
	// share a shard so LAN traffic never crosses.
	SiteShard map[string]int
	// Hosts lists every host ID in deterministic boot order. The index
	// becomes the host's global rank — the merge tiebreak that
	// reproduces sequential ordering for same-timestamp sends. Hosts
	// not listed here are unreachable in sharded mode.
	Hosts []string
	// Sites, when non-empty, gives each host's site parallel to Hosts,
	// sparing NewSharded one topo.Site lookup per host. Callers that
	// already hold the sites (the exp harness walks grid.Host structs)
	// pass them so a million-host world never builds the grid's
	// host-by-ID index just to answer questions it already knows.
	Sites []string
	// Check enables the lookahead-safety assertion: a cross-shard
	// delivery computed to arrive before the receiving shard's committed
	// horizon panics instead of silently rewriting history. Enabled by
	// exp worlds when VTIME_CHECK=1.
	Check bool
}

// NewSharded creates a simulated network spread over the shards of a
// vtime.Domain. The domain must have been built with a lookahead no
// larger than the minimum cross-shard SiteLatency of topo, or the
// conservative window protocol is unsound (enable ShardConfig.Check to
// assert it). The network registers its merge as a domain barrier
// callback.
func NewSharded(dom *vtime.Domain, topo Topology, cfg Config, sc ShardConfig) *Net {
	n := newNet(topo, cfg, dom.Shards(), len(sc.Hosts))
	n.sharded, n.check = len(n.sh) > 1, sc.Check
	for i := range n.sh {
		n.sh[i] = newNetShard(dom.Shard(i))
	}
	// Freeze the host table in rank order. One slab holds every netHost:
	// at a million hosts the per-object allocator overhead alone is tens
	// of MB, and the table never grows or shrinks after this loop.
	if len(sc.Sites) > 0 && len(sc.Sites) != len(sc.Hosts) {
		panic(fmt.Sprintf("simnet: %d sites for %d sharded hosts", len(sc.Sites), len(sc.Hosts)))
	}
	slab := make([]netHost, len(sc.Hosts))
	for rank, id := range sc.Hosts {
		var site string
		if len(sc.Sites) > 0 {
			site = sc.Sites[rank]
		} else {
			site = n.topo.Site(id)
		}
		if site == "" {
			panic(fmt.Sprintf("simnet: sharded host %q has no site", id))
		}
		shard, ok := sc.SiteShard[site]
		if !ok {
			panic(fmt.Sprintf("simnet: site %q of host %q has no shard", site, id))
		}
		n.addHost(&slab[rank], id, site, n.sh[shard])
	}
	// Freeze the pipe table: lazy creation would race between shard
	// loops. Site order is irrelevant (pipes carry no creation-order
	// state) but sorted anyway for reproducible iteration in debugging.
	sites := make([]string, 0, len(sc.SiteShard))
	for s := range sc.SiteShard {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for i, a := range sites {
		for _, b := range sites[i:] {
			key := pipeKey(a, b)
			if n.pipes[key] == nil {
				n.pipes[key] = &serializer{bps: n.topo.SiteBps(a, b)}
			}
		}
	}
	if n.sharded {
		dom.OnBarrier(n.mergeCross)
	}
	return n
}

// emit appends x to the shard's outbox, stamping the emission sequence.
func (sh *netShard) emit(x *xmsg) {
	sh.seq++
	x.seq = sh.seq
	// Grow, then copy straight into the slot: append(sh.out, *x) stages
	// the frame through a stack temporary.
	sh.out = append(sh.out, xmsg{})
	sh.out[len(sh.out)-1] = *x
}

// mergeCross is the barrier drain: it lands every cross-shard emission
// of the closing window in global (time, rank, seq) order. It runs on the domain driver goroutine with all shards parked
// at the committed horizon, so it may touch any shard's state.
func (n *Net) mergeCross() {
	defer n.closeWindow()
	buf := n.xscratch[:0]
	for _, sh := range n.sh {
		buf = append(buf, sh.out...)
		clearX(sh.out)
		sh.out = sh.out[:0]
	}
	if len(buf) == 0 {
		n.xscratch = buf
		return
	}
	// slices.SortFunc, unlike sort.Slice, sorts without boxing the
	// slice or allocating a closure header — the merge is on the
	// zero-steady-state-allocation window path. (at, rank, seq) is a
	// total order — seq is unique per shard and a rank maps to exactly
	// one shard — so the unstable sort is still deterministic.
	slices.SortFunc(buf, func(a, b xmsg) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.rank != b.rank {
			return a.rank - b.rank
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	for i := range buf {
		n.land(&buf[i])
	}
	clearX(buf)
	n.xscratch = buf[:0]
}

// clearX zeroes the entries so the scratch slice pins no conns/payloads.
func clearX(s []xmsg) {
	for i := range s {
		s[i] = xmsg{}
	}
}

// reserveCross computes the finish time of one cross-shard reservation
// on a receiver NIC as if it had been made in global (start, rank)
// order — the order the sequential run reserves in. It replays the
// window's logged local reservations up to the cross entry's sort
// position against a fresh frontier that starts at the window-start
// value, then slots the cross reservation in. Successive cross calls on
// one serializer arrive already sorted (the merge processes the global
// (at, rank, seq) order), so the cursor only moves forward.
func (n *Net) reserveCross(s *serializer, start time.Duration, rank int, size int64) time.Duration {
	if s.mergeID != n.winID {
		s.mergeID = n.winID
		if s.winID != n.winID { // no local reservations this window
			s.winID = n.winID
			s.winBusy = s.busy
			s.log = s.log[:0]
		}
		s.pos = 0
		s.xbusy = s.winBusy
		n.merged = append(n.merged, s)
	}
	s.replayLog(start, rank)
	if s.xbusy < start {
		s.xbusy = start
	}
	s.xbusy += s.cost(size)
	return s.xbusy
}

// replayLog advances the merge cursor through local log entries that
// sort before (start, rank), folding them into the replay frontier. A
// recomputed finish above the recorded one means a cross reservation
// queued ahead of a local message whose delivery already used the
// optimistic value — the frontier keeps the exact (recomputed) value so
// everything after it stays in sequential order; the delivered message
// itself cannot be recalled (its drift is bounded by the overlap).
func (s *serializer) replayLog(start time.Duration, rank int) {
	for s.pos < len(s.log) {
		e := &s.log[s.pos]
		if e.start > start || (e.start == start && e.rank > rank) {
			break
		}
		f := s.xbusy
		if f < e.start {
			f = e.start
		}
		f += s.cost(e.size)
		if f < e.finish {
			f = e.finish
		}
		s.xbusy = f
		s.pos++
	}
}

// closeWindow settles every serializer the merge touched — remaining
// local log entries replay into the frontier, which becomes the busy
// value the next window's local reservations build on — and opens the
// next window. Registered to run at the end of every barrier merge.
func (n *Net) closeWindow() {
	for i, s := range n.merged {
		s.replayLog(1<<62, 1<<31)
		s.busy = s.xbusy
		n.merged[i] = nil
	}
	n.merged = n.merged[:0]
	n.winID++
}
