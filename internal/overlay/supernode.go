// Package overlay implements the P2P membership layer of P2P-MPI: the
// supernode (the bootstrap entry point that replaced JXTA's RendezVous,
// §3.2) and the MPD-side peer cache with latency bookkeeping (§4.1).
//
// The supernode maintains the host list: peer ID, service addresses and a
// last-seen timestamp refreshed by periodic alive signals. Entries that
// miss alive signals for a TTL are swept out, which is how dead peers
// eventually disappear from the overlay.
//
// Beyond the paper, supernodes federate: K supernodes each own a shard
// of the membership space (rendezvous hashing on the host ID, see
// ShardAssign) and exchange versioned digests on a gossip cadence so
// that any one member can answer a host-list query with a near-complete
// merged view. A peer registers with its home shard and fails over to a
// foreign shard (a forced "foster" registration) when the home member
// is unreachable; anti-entropy on digest mismatch ships whole shard
// snapshots, so a member that was partitioned or rebooted converges
// back to the federation view within a few gossip rounds.
//
// Memory rule of the federated tier: state is private and recycled while
// it changes, canonical from the first quiescent round. Every applied
// snapshot rebuilds the member's merged view into a pooled buffer pair
// and is itself decoded into the buffers of the snapshot it replaces,
// each entry resolved to a PeerInfo the member or the world already
// holds before any string is built — a gossip tick of a boot storm
// allocates nothing. When a gossip round brings nothing new, the member
// offers its view and snapshots to the deployment's Interner and adopts
// the canonical, read-only copies, so a settled K-member federation
// holds one world, not K; the first edit after that copies on write.
package overlay

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// SupernodeConfig tunes the supernode daemon.
type SupernodeConfig struct {
	// Addr is the listen address ("host:port").
	Addr string
	// TTL is how long a peer stays listed without an alive signal.
	TTL time.Duration
	// SweepInterval is how often expired peers are purged.
	SweepInterval time.Duration
	// MaxPeersReturned bounds the host list shipped in Register and
	// FetchPeers replies; 0 (the default) returns the full table, the
	// historical behaviour. On worlds of thousands of hosts an unbounded
	// reply makes every cache refresh an O(world) message — capping it
	// keeps membership traffic flat while the supernode still tracks
	// everyone (PeerCount and the TTL sweep are unaffected). Each reply
	// is a window of the ID-ordered table whose start is drawn from the
	// seeded Seed generator, so a client that keeps refreshing samples
	// independent windows and covers the whole membership regardless of
	// how its fetch cadence interleaves with other clients' (any
	// deterministic cursor stride aliases to a fixed subset whenever
	// clients × stride ≡ 0 mod table size — the steady state of a world
	// where every peer refreshes in lockstep). Replies stay a pure
	// function of (Seed, request sequence), keeping simulated worlds
	// replayable. Submitters accumulate windows across refreshes (the
	// MPD booking step keeps fetching while its cache grows toward the
	// demand), but a cap well above the largest expected n×r×overbook
	// keeps bookings to a single refresh.
	MaxPeersReturned int
	// Seed drives the bounded-reply window draws (used only when
	// MaxPeersReturned > 0).
	Seed int64

	// Shard is this member's index in the federation (0 ≤ Shard < K).
	Shard int
	// Federation lists every member's listen address in shard order.
	// Empty or single-entry runs the historical standalone mode: no
	// gossip, no redirects, every registration accepted.
	Federation []string
	// GossipInterval is the digest-exchange period between federation
	// members (default 250ms of simulated/real time). Each tick the
	// member pulls from the next peer in a deterministic rotation;
	// because replies forward every shard the replier knows (not just
	// its own), the federation view spreads transitively and a K-member
	// federation converges in O(log K) rounds.
	GossipInterval time.Duration

	// Intern, when set, canonicalizes PeerInfo values and converged
	// snapshot/merged slices across the whole deployment (share one per
	// world). Purely a memory optimization: interning only ever swaps a
	// value for an equal one, so behaviour and replay are untouched.
	Intern *Interner
}

// federated reports whether the config describes a multi-member tier.
func (c *SupernodeConfig) federated() bool { return len(c.Federation) > 1 }

// SupernodeStats counts membership-plane work for experiments and tests.
type SupernodeStats struct {
	// BytesIn / BytesOut cover every served exchange (register, alive,
	// fetch and gossip), request and reply frame payloads.
	BytesIn, BytesOut int64
	// GossipExchanges counts completed digest round trips this member
	// initiated; GossipBytesIn/Out their frame payload totals from the
	// initiator's side. The replying member charges the same frames to
	// its own BytesIn/BytesOut (it serves the exchange), so summing
	// BytesIn+BytesOut across the federation counts every frame exactly
	// once.
	GossipExchanges               int64
	GossipBytesIn, GossipBytesOut int64
	// Fostered counts forced registrations accepted for hosts whose
	// home is another shard; Redirects counts unforced registrations
	// bounced toward their home shard.
	Fostered, Redirects int64
	// StaleSamples/StaleSumNS/StaleMaxNS measure gossip propagation lag:
	// each applied snapshot contributes (apply time − version creation
	// stamp). This is the measured bound on how stale a merged host-list
	// answer can be about another shard's membership.
	StaleSamples           int64
	StaleSumNS, StaleMaxNS int64
}

// MeanStaleness returns the average snapshot propagation lag.
func (s SupernodeStats) MeanStaleness() time.Duration {
	if s.StaleSamples == 0 {
		return 0
	}
	return time.Duration(s.StaleSumNS / s.StaleSamples)
}

// remoteShard is this member's snapshot of another member's owned set.
type remoteShard struct {
	version   uint64
	stamp     int64 // owner's version-creation instant (unix nanos)
	peers     []proto.PeerInfo
	seen      []int64
	appliedAt time.Time // when this snapshot landed here (liveness anchor)
	// shared marks peers as the interner's canonical slice (adopted on a
	// quiescent round): read-only, and not ours to recycle.
	shared bool
}

// entryMeta attributes one merged-view entry to the shard snapshot it
// came from, with its last-seen stamp for failover tie-breaking. Kept
// in a slice parallel to the ID-sorted merged view: the entry for
// merged[i] is meta[i], located by the same binary search. (A
// map[string]entryMeta here costs ~5× the slice's 16 bytes/entry in
// map overhead — at a million hosts across K members, hundreds of MB
// for data the merge already keeps sorted.)
type entryMeta struct {
	shard int
	seen  int64
}

// viewBuf is a private merged view's backing pair. Every rebuild writes
// into a pair from viewPool and hands back the pair it vacates, so a
// gossip tick allocates nothing once the storm's buffers exist; the
// pool is shared by all members (K per-member spares would be K idle
// world-sized arrays) and emptied by the GC when gossip goes quiet. A
// pooled pair is never aliased: the interner publishes copies, and a
// member holding the canonical view holds no pair at all.
type viewBuf struct {
	peers []proto.PeerInfo
	meta  []entryMeta
}

var viewPool = sync.Pool{New: func() any { return new(viewBuf) }}

// Supernode is the bootstrap/membership daemon — standalone, or one
// member of a federated tier.
type Supernode struct {
	rt  vtime.Runtime
	net transport.Network
	cfg SupernodeConfig

	mu     sync.Mutex
	peers  map[string]*peerEntry
	ln     transport.Listener
	closed bool
	// rng draws the bounded-reply window starts (MaxPeersReturned > 0);
	// built on first draw — an eager rand.Rand is ~5 KB of state a
	// standalone or unbounded member never touches, and the same seed
	// produces the same stream whenever it is first used.
	rng *rand.Rand
	// listCache is the ID-sorted owned table, maintained incrementally: a
	// new peer is spliced in at its sort position, a changed one replaced
	// in place, an expired one removed. The boot storm of a multi-
	// thousand-host world registers every peer once, and standalone
	// replies route through this list — re-sorting it per reply (or even
	// per membership change) used to dominate world boot.
	listCache []proto.PeerInfo

	// Federation state. ownVersion/ownStamp version the owned set (bumped
	// on add/remove/info-change, NOT on bare keep-alives); remote holds
	// the freshest snapshot gossip delivered for every other shard;
	// merged is the ID-sorted union the replies are encoded from, with
	// meta attributing each entry to its source shard. Standalone mode
	// leaves all of this nil and serves straight from listCache.
	ownVersion uint64
	ownStamp   int64
	remote     map[int]*remoteShard
	merged     []proto.PeerInfo
	meta       []entryMeta // parallel to merged; see entryMeta
	// mergedShared marks merged as the interner's canonical view, aliased
	// by other members (adopted on a quiescent round, with meta clipped to
	// length); any in-place edit must copy first (cowMergedLocked). A view
	// is private — a viewPool pair — from its first change until then.
	mergedShared bool
	// memberSeen records the last direct evidence that a federation
	// member is alive (it answered our digest, or it sent us one). A
	// member silent past the TTL has its snapshot swept — otherwise a
	// permanently dead shard's peers would be served in merged replies
	// forever, breaking the package's TTL contract.
	memberSeen map[int]time.Time
	stats      SupernodeStats

	// gossip is the gossip actor's scratch (only gossipWith touches it):
	// the digest's version vector and frame, the decode target of every
	// reply — whose Peers/Seen buffers trade places with the snapshots
	// they replace — and the resolver with its per-shard hints. The
	// world-sized parts are dropped on a quiescent round, so a converged
	// member retains none of them.
	gossip struct {
		versions []uint64
		frame    []byte
		delta    proto.ShardDelta
		resolver proto.PeerResolver
	}
}

type peerEntry struct {
	info     proto.PeerInfo
	lastSeen time.Time
}

// NewSupernode creates a supernode daemon (not yet started).
func NewSupernode(rt vtime.Runtime, net transport.Network, cfg SupernodeConfig) *Supernode {
	if cfg.TTL <= 0 {
		cfg.TTL = 90 * time.Second
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.TTL / 3
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 250 * time.Millisecond
	}
	s := &Supernode{
		rt: rt, net: net, cfg: cfg,
		peers: make(map[string]*peerEntry),
	}
	if cfg.federated() {
		s.remote = make(map[int]*remoteShard)
		s.memberSeen = make(map[int]time.Time)
		s.gossip.versions = make([]uint64, len(cfg.Federation))
		s.gossip.resolver.Hints = make([][]proto.PeerInfo, len(cfg.Federation))
		s.gossip.resolver.Lookup = cfg.Intern.Lookup // nil-receiver safe
	}
	return s
}

// rngLocked returns the window-draw generator, building it on first use
// (s.mu must be held).
func (s *Supernode) rngLocked() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.cfg.Seed ^ 0x5eed))
	}
	return s.rng
}

// Start binds the listener, starts serving it and spawns the sweep and
// (in a federation) gossip loops.
func (s *Supernode) Start() error {
	ln, err := s.net.Listen(s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	transport.Serve(s.rt, ln, "supernode.conn", s.serveConn)
	s.rt.Go("supernode.sweep", s.sweepLoop)
	if s.cfg.federated() {
		s.rt.Go("supernode.gossip", s.gossipLoop)
	}
	return nil
}

// Close stops the daemon. Idempotent.
func (s *Supernode) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

func (s *Supernode) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Addr returns the bound listen address.
func (s *Supernode) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr()
}

// Shard returns this member's shard index (0 when standalone).
func (s *Supernode) Shard() int { return s.cfg.Shard }

// PeerCount returns the number of peers registered directly with this
// member (its owned shard; the full table when standalone).
func (s *Supernode) PeerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// MergedCount returns the number of distinct peers in this member's
// federation view (equal to PeerCount when standalone).
func (s *Supernode) MergedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.replyListLocked())
}

// Stats returns a copy of the membership-plane counters.
func (s *Supernode) Stats() SupernodeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// OwnedIDs returns the IDs registered directly with this member, sorted
// (tests and tooling).
func (s *Supernode) OwnedIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.listCache))
	for i := range s.listCache {
		out = append(out, s.listCache[i].ID)
	}
	return out
}

// Snapshot returns the current host list — the merged federation view —
// for tests and tooling.
func (s *Supernode) Snapshot() []proto.PeerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]proto.PeerInfo(nil), s.replyListLocked()...)
}

// replyListLocked is the table replies encode from: the merged view in
// a federation, the owned table standalone.
func (s *Supernode) replyListLocked() []proto.PeerInfo {
	if s.cfg.federated() {
		return s.merged
	}
	return s.listCache
}

// findSorted locates id in a sorted table: the index where it is (or
// would be inserted) and whether it is present.
func findSorted(list []proto.PeerInfo, id string) (int, bool) {
	i := sort.Search(len(list), func(j int) bool { return list[j].ID >= id })
	return i, i < len(list) && list[i].ID == id
}

// spliceIn inserts v at index i (from findSorted), shifting the tail.
func spliceIn[T any](list []T, i int, v T) []T {
	var zero T
	list = append(list, zero)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// spliceOut removes index i.
func spliceOut[T any](list []T, i int) []T {
	return append(list[:i], list[i+1:]...)
}

// appendPeerListReply encodes the host-list reply straight from the
// sorted table into dst: the full table, or — when MaxPeersReturned
// bounds it — a window whose start is drawn from the seeded generator.
// Independent draws per reply mean no client can get pinned to a fixed
// subset by an unlucky congruence between its fetch cadence and the
// table size; repeated refreshes cover the membership with probability
// approaching one (coupon-collector over table/limit windows).
func (s *Supernode) appendPeerListReply(dst []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.replyListLocked()
	start, count := 0, len(list)
	if limit := s.cfg.MaxPeersReturned; limit > 0 && len(list) > limit {
		start = s.rngLocked().Intn(len(list))
		count = limit
	}
	return proto.AppendPeerListFrame(dst, list, start, count)
}

// aliveAck{Known,Unknown}Frame are the two constant AliveAck replies;
// Send copies frames, so shared instances serve every keep-alive.
var (
	aliveAckKnownFrame   = proto.MustMarshal(&proto.AliveAck{Known: true})
	aliveAckUnknownFrame = proto.MustMarshal(&proto.AliveAck{})
)

// replyScratchPool recycles host-list reply buffers. Every Register/
// Fetch conn is one-shot (clients dial per exchange), so a per-
// connection scratch would regrow an O(world) buffer per reply; a
// single daemon-wide buffer, on the other hand, races under vtime.Real,
// where connections really are served concurrently. A pooled
// buffer is owned exclusively from Get until after Send returns (both
// transports are done with the frame by then: simnet copies it, TCP
// writes it out synchronously), which is safe in both worlds and keeps
// the amortized growth of the shared buffers.
var replyScratchPool = sync.Pool{New: func() any { return new([]byte) }}

// serveConn returns the frame handler that answers one connection's
// request/reply exchanges; it runs in the transport's delivery context
// and never parks. The reply frame is built in a pooled scratch buffer
// (the transports copy frames on Send, so it is immediately reusable)
// and request payloads are released back to the delivering transport
// once decoded — steady-state, the membership plane allocates nothing
// per exchange beyond what the table itself retains.
func (s *Supernode) serveConn(c transport.Conn) transport.FrameHandler {
	return func(m transport.Message) bool {
		reqLen := int64(len(m.Payload))
		_, req, err := proto.Unmarshal(m.Payload)
		m.Release()
		if err != nil || s.isClosed() {
			return false // garbage, or a closed daemon: hang up
		}
		var frame []byte
		var scratch *[]byte
		switch r := req.(type) {
		case *proto.Register:
			if s.cfg.federated() {
				if home := ShardAssign(r.Peer.ID, len(s.cfg.Federation)); home != s.cfg.Shard {
					if !r.Forced {
						s.mu.Lock()
						s.stats.Redirects++
						s.mu.Unlock()
						scratch = replyScratchPool.Get().(*[]byte)
						frame, _ = proto.AppendMarshal((*scratch)[:0],
							&proto.ShardRedirect{Shard: home, Addr: s.cfg.Federation[home]})
						break
					}
					s.mu.Lock()
					s.stats.Fostered++
					s.mu.Unlock()
				}
			}
			s.register(r.Peer)
			scratch = replyScratchPool.Get().(*[]byte)
			frame = s.appendPeerListReply((*scratch)[:0])
		case *proto.Alive:
			if s.touch(r.ID) {
				frame = aliveAckKnownFrame
			} else {
				frame = aliveAckUnknownFrame
			}
		case *proto.FetchPeers:
			scratch = replyScratchPool.Get().(*[]byte)
			frame = s.appendPeerListReply((*scratch)[:0])
		case *proto.Digest:
			scratch = replyScratchPool.Get().(*[]byte)
			frame = s.appendDeltaReply((*scratch)[:0], r)
		default:
			return false // protocol violation: drop the connection
		}
		err = c.Send(transport.Message{Payload: frame})
		s.mu.Lock()
		s.stats.BytesIn += reqLen
		s.stats.BytesOut += int64(len(frame))
		s.mu.Unlock()
		if scratch != nil {
			*scratch = frame[:0]
			replyScratchPool.Put(scratch)
		}
		return err == nil
	}
}

func (s *Supernode) register(p proto.PeerInfo) {
	p = s.cfg.Intern.PeerInfo(p) // share the decode with the whole world
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.rt.Now()
	if e, ok := s.peers[p.ID]; ok {
		if e.info != p {
			e.info = p
			if i, found := findSorted(s.listCache, p.ID); found {
				s.listCache[i] = p
			}
			s.bumpVersionLocked(now)
			if s.cfg.federated() {
				s.mergedUpsertLocked(p, s.cfg.Shard, now.UnixNano())
			}
		} else if s.cfg.federated() {
			// Info unchanged, but the stamp refresh matters: it is what
			// lets a re-homed registration win the failover tie-break
			// against a stale foster copy in another shard's snapshot.
			s.mergedUpsertLocked(p, s.cfg.Shard, now.UnixNano())
		}
		e.lastSeen = now
		return
	}
	s.peers[p.ID] = &peerEntry{info: p, lastSeen: now}
	i, _ := findSorted(s.listCache, p.ID)
	s.listCache = spliceIn(s.listCache, i, p)
	s.bumpVersionLocked(now)
	if s.cfg.federated() {
		s.mergedUpsertLocked(p, s.cfg.Shard, now.UnixNano())
	}
}

// touch refreshes a peer's last-seen stamp, reporting whether the peer
// is actually listed here.
func (s *Supernode) touch(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.peers[id]
	if ok {
		e.lastSeen = s.rt.Now()
		if s.cfg.federated() {
			// meta is never aliased between members (only merged is), so
			// the stamp refresh can write in place.
			if i, found := findSorted(s.merged, id); found && s.meta[i].shard == s.cfg.Shard {
				s.meta[i].seen = e.lastSeen.UnixNano()
			}
		}
	}
	return ok
}

// bumpVersionLocked advances the owned-set version and stamps the
// instant, the quantity gossip digests compare.
func (s *Supernode) bumpVersionLocked(now time.Time) {
	s.ownVersion++
	s.ownStamp = now.UnixNano()
}

// cowMergedLocked unshares the merged view before an in-place edit: the
// canonical slice is aliased by every other federation member. Fires on
// the first edit after a quiescent round, not once per gossip tick —
// rebuilds leave the view private.
func (s *Supernode) cowMergedLocked() {
	if s.mergedShared {
		buf := viewPool.Get().(*viewBuf)
		s.merged = append(buf.peers[:0], s.merged...)
		s.meta = append(buf.meta[:0], s.meta...)
		s.mergedShared = false
	}
}

// mergedUpsertLocked inserts or refreshes one entry of the merged view,
// attributed to the given shard. A fresher last-seen stamp wins a
// conflict; ties go to the lower shard index so replays are exact.
func (s *Supernode) mergedUpsertLocked(p proto.PeerInfo, shard int, seen int64) {
	i, found := findSorted(s.merged, p.ID)
	if found {
		m := s.meta[i]
		if m.shard != shard && (m.seen > seen || (m.seen == seen && m.shard < shard)) {
			return // the other shard's claim is fresher
		}
		if s.merged[i] != p {
			s.cowMergedLocked()
			s.merged[i] = p
		}
		s.meta[i] = entryMeta{shard: shard, seen: seen}
		return
	}
	s.cowMergedLocked()
	s.merged = spliceIn(s.merged, i, p)
	s.meta = spliceIn(s.meta, i, entryMeta{shard: shard, seen: seen})
}

// mergedDropLocked removes an entry attributed to the given shard from
// the merged view; if another shard's snapshot still lists the host,
// the freshest surviving claim takes its place so an owned expiry cannot
// erase a peer the federation still believes in.
func (s *Supernode) mergedDropLocked(id string, shard int) {
	i, found := findSorted(s.merged, id)
	if !found || s.meta[i].shard != shard {
		return
	}
	s.cowMergedLocked()
	if p, m, ok := s.claimLocked(id, shard); ok {
		s.merged[i], s.meta[i] = p, m
		return
	}
	s.merged = spliceOut(s.merged, i)
	s.meta = spliceOut(s.meta, i)
}

func (s *Supernode) sweepLoop() {
	for {
		s.rt.Sleep(s.cfg.SweepInterval)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		now := s.rt.Now()
		cutoff := now.Add(-s.cfg.TTL)
		for id, e := range s.peers {
			if e.lastSeen.Before(cutoff) {
				delete(s.peers, id)
				if i, found := findSorted(s.listCache, id); found {
					s.listCache = spliceOut(s.listCache, i)
				}
				s.bumpVersionLocked(now)
				if s.cfg.federated() {
					s.mergedDropLocked(id, s.cfg.Shard)
				}
			}
		}
		// A federation member silent past the TTL (no digest served, no
		// digest answered — its snapshot's arrival anchors a member we
		// only ever learned about transitively) gets its shard swept
		// from the merged view: a permanently dead shard must not keep
		// its expired peers listed forever. Peers that failed over are
		// owned elsewhere by now and survive via reinstatement. One
		// rebuild against an empty claim set, not a splice per entry.
		for k, r := range s.remote {
			anchor := s.memberSeen[k]
			if anchor.IsZero() || r.appliedAt.After(anchor) {
				anchor = r.appliedAt
			}
			if anchor.Before(cutoff) {
				delete(s.remote, k)
				delete(s.memberSeen, k)
				s.rebuildMergedLocked(k, nil, nil)
			}
		}
		s.mu.Unlock()
	}
}

// --- Gossip: digest exchange and anti-entropy ---

// gossipLoop pulls from the next federation member in a deterministic
// rotation every GossipInterval. Pull replies carry every shard the
// replier knows, so information spreads transitively (O(log K) rounds
// to converge) even though each member contacts one peer per tick.
func (s *Supernode) gossipLoop() {
	k := len(s.cfg.Federation)
	for tick := 0; ; tick++ {
		s.rt.Sleep(s.cfg.GossipInterval)
		if s.isClosed() {
			return
		}
		s.gossipWith((s.cfg.Shard + 1 + tick%(k-1)) % k)
	}
}

// gossipWith runs one digest round trip against the member at the
// given shard index and applies whatever snapshots come back. The reply
// is decoded outside the lock into the actor's scratch, each entry
// resolved against the snapshot it is about to replace (the hints,
// captured with the version vector) before any string is built.
func (s *Supernode) gossipWith(shard int) {
	addr := s.cfg.Federation[shard]
	g := &s.gossip
	s.mu.Lock()
	s.knownVersionsLocked(g.versions)
	clear(g.resolver.Hints)
	for k, r := range s.remote {
		g.resolver.Hints[k] = r.peers
	}
	s.mu.Unlock()

	frame, err := proto.AppendMarshal(g.frame[:0], &proto.Digest{From: s.cfg.Shard, Versions: g.versions})
	if err != nil {
		return
	}
	g.frame = frame
	reply, err := transport.RequestReply(s.net, addr,
		transport.Message{Payload: frame}, s.cfg.GossipInterval*4)
	if err != nil {
		return
	}
	got := int64(len(reply.Payload))
	err = g.resolver.DecodeShardDelta(reply.Payload, &g.delta)
	reply.Release()
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.GossipExchanges++
	s.stats.GossipBytesOut += int64(len(frame))
	s.stats.GossipBytesIn += got
	// The replying member's serveConn already charges both frames to its
	// BytesIn/BytesOut — charging them here too would double-count every
	// gossip exchange in federation-wide sums (exp.World.FederationStats).
	s.memberSeen[shard] = s.rt.Now()
	for i := range g.delta.Shards {
		s.applyShardLocked(&g.delta.Shards[i])
	}
	if len(g.delta.Shards) > 0 {
		return
	}
	// Quiescent round: the one place state is offered for sharing. While
	// it changes, a view (and every snapshot) is private and recycled;
	// once the federation agrees, every member offers what it holds and
	// adopts the interner's canonical copy — K value-identical worlds
	// collapse into one, and the private buffers go back to the pool (or,
	// with the decode scratch, to the GC). Content equality is what the
	// interner checks, so a not-yet-converged offer is never wrongly
	// adopted. Map order is immaterial: the offers are independent.
	it := s.cfg.Intern
	if !s.mergedShared {
		if canon, ok := it.MergedView(s.merged); ok {
			meta := exactClone(s.meta)
			viewPool.Put(&viewBuf{peers: s.merged[:0], meta: s.meta[:0]})
			s.merged, s.meta, s.mergedShared = canon, meta, true
		}
	}
	for k, r := range s.remote {
		if !r.shared {
			r.peers, r.shared = it.Snapshot(k, r.version, r.peers)
		}
	}
	g.delta = proto.ShardDelta{}
	clear(g.resolver.Hints)
}

// KnownVersions returns the freshest version this member knows per
// federation shard, or nil when standalone. Element-wise equality of
// every member's vector is the anti-entropy convergence predicate: the
// healing watcher of the nemesis experiments polls it to timestamp the
// instant a split federation has re-converged.
func (s *Supernode) KnownVersions() []uint64 {
	if !s.cfg.federated() {
		return nil
	}
	v := make([]uint64, len(s.cfg.Federation))
	s.mu.Lock()
	s.knownVersionsLocked(v)
	s.mu.Unlock()
	return v
}

// knownVersionsLocked fills v with the freshest version this member
// knows per shard.
func (s *Supernode) knownVersionsLocked(v []uint64) {
	for i := range v {
		v[i] = 0
	}
	v[s.cfg.Shard] = s.ownVersion
	for k, r := range s.remote {
		if k < len(v) {
			v[k] = r.version
		}
	}
}

// appendDeltaReply encodes, under the lock, a ShardDelta holding every
// shard on which the digest's sender trails this member's knowledge.
// The frame is built straight from the stored snapshots (and the owned
// table), no intermediate copies.
func (s *Supernode) appendDeltaReply(dst []byte, d *proto.Digest) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := len(s.cfg.Federation)
	if d.From >= 0 && d.From < k {
		s.memberSeen[d.From] = s.rt.Now() // the sender is provably alive
	}
	var states []proto.ShardState
	reqVersion := func(i int) uint64 {
		if i < len(d.Versions) {
			return d.Versions[i]
		}
		return 0
	}
	if s.ownVersion > reqVersion(s.cfg.Shard) {
		states = append(states, s.ownShardStateLocked())
	}
	for i := 0; i < k; i++ {
		if r := s.remote[i]; r != nil && r.version > reqVersion(i) {
			states = append(states, proto.ShardState{
				Shard: i, Version: r.version, Stamp: r.stamp,
				Peers: r.peers, Seen: r.seen,
			})
		}
	}
	frame, _ := proto.AppendMarshal(dst, &proto.ShardDelta{Shards: states})
	return frame
}

// ownShardStateLocked snapshots the owned set for a gossip reply. The
// Peers slice aliases the sorted owned table (the encoder reads it
// under the same lock); Seen is built on the fly.
func (s *Supernode) ownShardStateLocked() proto.ShardState {
	seen := make([]int64, len(s.listCache))
	for i := range s.listCache {
		if e := s.peers[s.listCache[i].ID]; e != nil {
			seen[i] = e.lastSeen.UnixNano()
		}
	}
	return proto.ShardState{
		Shard: s.cfg.Shard, Version: s.ownVersion, Stamp: s.ownStamp,
		Peers: s.listCache, Seen: seen,
	}
}

// applyShardLocked folds one received snapshot into the federation
// view: it replaces the stored snapshot for that shard and rebuilds the
// affected slice of the merged view with one linear merge pass.
func (s *Supernode) applyShardLocked(st *proto.ShardState) {
	k := st.Shard
	if k == s.cfg.Shard || k < 0 || k >= len(s.cfg.Federation) {
		return // own shard is authoritative locally; bogus index dropped
	}
	r := s.remote[k]
	if r == nil {
		r = new(remoteShard)
		s.remote[k] = r
	} else if st.Version <= r.version {
		return
	}
	if st.Stamp > 0 {
		lag := s.rt.Now().UnixNano() - st.Stamp
		if lag > 0 {
			s.stats.StaleSamples++
			s.stats.StaleSumNS += lag
			if lag > s.stats.StaleMaxNS {
				s.stats.StaleMaxNS = lag
			}
		}
	}
	// The snapshot takes the decoded buffers and the decode scratch takes
	// the ones it vacates (unless they are the interner's), so steady
	// gossip decodes into the same few arrays.
	vacPeers, vacSeen := r.peers[:0], r.seen[:0]
	if r.shared {
		vacPeers = nil
	}
	*r = remoteShard{version: st.Version, stamp: st.Stamp,
		peers: st.Peers, seen: st.Seen, appliedAt: s.rt.Now()}
	s.rebuildMergedLocked(k, r.peers, r.seen)
	st.Peers, st.Seen = vacPeers, vacSeen
}

// rebuildMergedLocked re-merges the view against shard k's claim set —
// its new snapshot, or nothing when the shard was swept — in one linear
// two-pointer pass over the (both ID-sorted) current view and the
// claims; per-entry splices would make a boot-storm convergence, or the
// sweep of a dead shard, O(world²). An entry the shard no longer claims
// is replaced in passing by the freshest surviving claim, if any. The
// pass writes into a pooled pair and hands back the one it vacates.
func (s *Supernode) rebuildMergedLocked(k int, peers []proto.PeerInfo, stamps []int64) {
	claimSeen := func(j int) int64 {
		if j < len(stamps) {
			return stamps[j]
		}
		return 0
	}
	buf := viewPool.Get().(*viewBuf)
	if cap(buf.peers) < len(s.merged) || cap(buf.meta) < len(s.merged) {
		// Pool miss, or a pair the world outgrew: size for the union plus
		// headroom, so a growing world regrows every eighth, not every tick.
		n := len(s.merged) + len(peers)
		buf.peers, buf.meta = make([]proto.PeerInfo, 0, n+n/8), make([]entryMeta, 0, n+n/8)
	}
	out, metaOut := buf.peers[:0], buf.meta[:0]
	i, j := 0, 0
	for i < len(s.merged) || j < len(peers) {
		switch {
		case j >= len(peers) || (i < len(s.merged) && s.merged[i].ID < peers[j].ID):
			if s.meta[i].shard != k {
				out = append(out, s.merged[i])
				metaOut = append(metaOut, s.meta[i])
			} else if p, m, ok := s.claimLocked(s.merged[i].ID, k); ok {
				// Previously attributed to this shard, no longer claimed.
				out = append(out, p)
				metaOut = append(metaOut, m)
			}
			i++
		case i >= len(s.merged) || peers[j].ID < s.merged[i].ID:
			// New host for the merged view.
			out = append(out, peers[j])
			metaOut = append(metaOut, entryMeta{shard: k, seen: claimSeen(j)})
			j++
		default: // same ID: resolve precedence
			m := s.meta[i]
			seen := claimSeen(j)
			if m.shard == k || seen > m.seen || (seen == m.seen && k < m.shard) {
				out = append(out, peers[j])
				metaOut = append(metaOut, entryMeta{shard: k, seen: seen})
			} else {
				out = append(out, s.merged[i])
				metaOut = append(metaOut, m)
			}
			i++
			j++
		}
	}
	if !s.mergedShared {
		buf.peers, buf.meta = s.merged[:0], s.meta[:0]
		viewPool.Put(buf)
	}
	s.merged, s.meta, s.mergedShared = out, metaOut, false
}

// claimLocked finds the freshest surviving claim for a host whose
// attribution to the excluded shard just disappeared (the owned table
// and every other shard's snapshot are consulted).
func (s *Supernode) claimLocked(id string, exclude int) (proto.PeerInfo, entryMeta, bool) {
	bestShard, bestSeen, bestIdx := -1, int64(0), -1
	for k, r := range s.remote {
		if k == exclude {
			continue
		}
		if i, found := findSorted(r.peers, id); found {
			seen := int64(0)
			if i < len(r.seen) {
				seen = r.seen[i]
			}
			if bestShard == -1 || seen > bestSeen || (seen == bestSeen && k < bestShard) {
				bestShard, bestSeen, bestIdx = k, seen, i
			}
		}
	}
	if exclude != s.cfg.Shard {
		if e, owned := s.peers[id]; owned {
			if seen := e.lastSeen.UnixNano(); bestShard == -1 || seen >= bestSeen {
				return e.info, entryMeta{shard: s.cfg.Shard, seen: seen}, true
			}
		}
	}
	if bestShard < 0 {
		return proto.PeerInfo{}, entryMeta{}, false
	}
	return s.remote[bestShard].peers[bestIdx], entryMeta{shard: bestShard, seen: bestSeen}, true
}

// Client-side helpers: one-shot exchanges with a supernode.

// RegisterWith announces self to the supernode and returns the host list.
func RegisterWith(net transport.Network, snAddr string, self proto.PeerInfo, timeout time.Duration) ([]proto.PeerInfo, error) {
	return RegisterWithInto(net, snAddr, self, timeout, nil)
}

// RegisterWithInto is RegisterWith appending the host list to dst
// (reusing its capacity) — the form callers with scratch slices use, so
// an O(world) reply does not allocate an O(world) slice per refresh.
func RegisterWithInto(net transport.Network, snAddr string, self proto.PeerInfo, timeout time.Duration, dst []proto.PeerInfo) ([]proto.PeerInfo, error) {
	reply, err := RegisterRaw(net, snAddr, self, false, timeout)
	if err != nil {
		return dst, err
	}
	out, err := proto.UnmarshalPeerList(reply.Payload, dst)
	reply.Release()
	return out, err
}

// RegisterRaw performs the Register exchange and returns the raw reply
// frame — a PeerList, or (in a federation) possibly a ShardRedirect.
// The caller decodes it (proto.UnmarshalPeerList after a Peek) and
// releases the message; deferring the decode lets hot refresh loops
// borrow their scratch only for the decode itself instead of across the
// whole network round trip. forced marks a failover registration that a
// foreign shard must foster rather than redirect.
func RegisterRaw(net transport.Network, snAddr string, self proto.PeerInfo, forced bool, timeout time.Duration) (transport.Message, error) {
	return transport.RequestReply(net, snAddr,
		transport.Message{Payload: proto.MustMarshal(&proto.Register{Peer: self, Forced: forced})}, timeout)
}

// FetchFrom retrieves a fresh host list from the supernode.
func FetchFrom(net transport.Network, snAddr string, timeout time.Duration) ([]proto.PeerInfo, error) {
	return FetchFromInto(net, snAddr, timeout, nil)
}

// FetchFromInto is FetchFrom appending into dst (reusing its capacity).
func FetchFromInto(net transport.Network, snAddr string, timeout time.Duration, dst []proto.PeerInfo) ([]proto.PeerInfo, error) {
	reply, err := FetchRaw(net, snAddr, timeout)
	if err != nil {
		return dst, err
	}
	out, err := proto.UnmarshalPeerList(reply.Payload, dst)
	reply.Release()
	return out, err
}

// FetchRaw performs the FetchPeers exchange and returns the raw PeerList
// reply frame; see RegisterRaw for why callers decode it themselves.
func FetchRaw(net transport.Network, snAddr string, timeout time.Duration) (transport.Message, error) {
	return transport.RequestReply(net, snAddr,
		transport.Message{Payload: proto.MustMarshal(&proto.FetchPeers{})}, timeout)
}

// SendAlive refreshes self's last-seen stamp at the supernode. The
// returned flag reports whether that supernode actually lists the peer;
// false (an expired or foreign entry) means the sender should
// re-register rather than keep refreshing a ghost.
func SendAlive(net transport.Network, snAddr, selfID string, timeout time.Duration) (bool, error) {
	reply, err := transport.RequestReply(net, snAddr,
		transport.Message{Payload: proto.MustMarshal(&proto.Alive{ID: selfID})}, timeout)
	if err != nil {
		return false, err
	}
	var ack proto.AliveAck
	err = proto.DecodeInto(reply.Payload, &ack)
	reply.Release()
	if err != nil {
		return false, err
	}
	return ack.Known, nil
}
