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
// snapshot is decoded into the buffers of the snapshot it replaces,
// against that snapshot's wire form: an entry whose bytes repeat costs
// one memory compare, and any other is resolved to a PeerInfo the
// member or the world already holds before a string is built — a
// gossip tick of a boot storm allocates nothing. The decode reports the
// entries that changed, and only those are folded into the member's
// merged view, pooled buffers. The owned table and the merged view each
// keep their wire image in step with every edit, so a reply copies
// bytes instead of encoding them. When a gossip round brings nothing
// new, the member offers its view, its image and its snapshots to the
// deployment's Interner and adopts the canonical, read-only copies, so
// a settled K-member federation holds one world, not K; the first edit
// after that copies on write.
package overlay

import (
	"fmt"
	"math/rand"
	"slices"
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
	version uint64
	stamp   int64 // owner's version-creation instant (unix nanos)
	peers   []proto.PeerInfo
	seen    []int64
	// spans is the snapshot as decoded: peers and seen, its wire form
	// and its changes from the snapshot it replaced. The next snapshot
	// of the shard is decoded against it, and a digest reply forwards
	// its wire form. Traded with peers and seen; on a quiescent round
	// it keeps only the values.
	spans     proto.Spans
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

// viewBuf is a private merged view's backing: the entries, their meta
// and their wire image. Every rebuild writes into a viewBuf from
// viewPool and hands back the one it vacates, so a gossip tick
// allocates nothing once the storm's buffers exist; the pool is shared
// by all members (K per-member spares would be K idle world-sized
// arrays) and emptied by the GC when gossip goes quiet. A pooled
// viewBuf is never aliased: the interner publishes copies, and a member
// holding the canonical view holds no viewBuf at all.
type viewBuf struct {
	peers []proto.PeerInfo
	meta  []entryMeta
	img   *proto.PeerImage
}

var viewPool = sync.Pool{New: func() any { return &viewBuf{img: new(proto.PeerImage)} }}

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
	// per membership change) used to dominate world boot. owned holds
	// each listed peer's entry in the same order, so the gossip reply's
	// last-seen column is a slice walk, not a map lookup per peer.
	// listImage is listCache's wire image, edited with it: replies copy
	// entries from it instead of encoding them.
	listCache []proto.PeerInfo
	owned     []*peerEntry
	listImage proto.PeerImage

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
	meta       []entryMeta      // parallel to merged; see entryMeta
	mergedImg  *proto.PeerImage // merged's wire image, edited with it
	// mergedShared marks merged and mergedImg as the interner's canonical
	// view and image, aliased by other members (adopted on a quiescent
	// round, with meta clipped to length); any in-place edit must copy
	// first (cowMergedLocked). A view is private — a viewPool viewBuf —
	// from its first change until then.
	mergedShared bool
	// memberSeen records the last direct evidence that a federation
	// member is alive (it answered our digest, or it sent us one). A
	// member silent past the TTL has its snapshot swept — otherwise a
	// permanently dead shard's peers would be served in merged replies
	// forever, breaking the package's TTL contract.
	memberSeen map[int]time.Time
	stats      SupernodeStats

	// reply is appendDeltaReply's scratch, used under mu while a reply
	// is encoded: the states it ships, the spans each was decoded with
	// (nil for the owned set), and the owned set's last-seen column,
	// which is dropped with the gossip scratch.
	reply struct {
		states []proto.ShardState
		held   []*proto.Spans
		seen   []int64
	}

	// gossip is the gossip round's scratch (only gossipWith and applyDelta
	// touch it, one exchange at a time):
	// the digest's version vector and frame, the decode target of every
	// reply — whose Peers/Seen buffers and recorded spans trade places
	// with the snapshots they replace — and the resolver with its
	// per-shard hints and held spans. The world-sized parts, every
	// snapshot's spans included, are dropped on a quiescent round, so a
	// converged member retains none of them.
	gossip struct {
		versions []uint64
		frame    []byte
		delta    proto.ShardDelta
		resolver proto.PeerResolver
	}
}

// peerEntry is an owned peer's liveness. Its info is the listCache
// entry at its own index in owned: peers, listCache and owned gain and
// lose a peer together, under mu.
type peerEntry struct {
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
		s.mergedImg = new(proto.PeerImage)
		s.gossip.versions = make([]uint64, len(cfg.Federation))
		s.gossip.resolver.Held = make([]*proto.Spans, len(cfg.Federation))
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

// Start binds the listener, starts serving it and arms the sweep and (in
// a federation) gossip timer chains: each round runs in its timer event
// and re-arms the next, so an idle supernode holds no parked actor.
func (s *Supernode) Start() error {
	ln, err := s.net.Listen(s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	transport.Serve(ln, s.serveConn)
	s.rt.Schedule(s.cfg.SweepInterval, s.sweep)
	if s.cfg.federated() {
		s.rt.Schedule(s.cfg.GossipInterval, func() { s.gossipTick(0) })
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
	list, _ := s.replyListLocked()
	return len(list)
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
	list, _ := s.replyListLocked()
	return append([]proto.PeerInfo(nil), list...)
}

// replyListLocked is the table replies are copied from, with its wire
// image: the merged view in a federation, the owned table standalone.
func (s *Supernode) replyListLocked() ([]proto.PeerInfo, *proto.PeerImage) {
	if s.cfg.federated() {
		return s.merged, s.mergedImg
	}
	return s.listCache, &s.listImage
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

// peerListReply returns the host-list reply, copied from the sorted
// table's wire image — no string encoded: the full table, or — when
// MaxPeersReturned bounds it — a window whose start is drawn from the
// seeded generator. The full table goes out as the image's shared frame
// (proto.PeerImage.Frame), the same bytes for every reply until the
// table changes; a window is one or two copies into a buffer of
// replyScratchPool, returned with the message for the caller to put
// back after the Send.
// Independent draws per reply mean no client can get pinned to a fixed
// subset by an unlucky congruence between its fetch cadence and the
// table size; repeated refreshes cover the membership with probability
// approaching one (coupon-collector over table/limit windows).
func (s *Supernode) peerListReply() (transport.Message, *[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list, img := s.replyListLocked()
	limit := s.cfg.MaxPeersReturned
	if limit <= 0 || len(list) <= limit {
		return transport.Shared(img.Frame()), nil
	}
	start := s.rngLocked().Intn(len(list))
	scratch := replyScratchPool.Get().(*[]byte)
	return transport.Message{Payload: proto.AppendPeerListImage((*scratch)[:0], img, start, limit)}, scratch
}

// aliveAck{Known,Unknown} are the two constant AliveAck replies, sent
// as Shared: one instance of each serves every keep-alive.
var (
	aliveAckKnown   = transport.Shared(proto.MustMarshal(&proto.AliveAck{Known: true}))
	aliveAckUnknown = transport.Shared(proto.MustMarshal(&proto.AliveAck{}))
)

// replyScratchPool recycles the buffers of the replies built per
// request: windowed host lists, gossip replies and redirects. Every
// Register/Fetch conn is one-shot (clients dial per exchange), so a
// per-connection scratch would regrow an O(world) buffer per reply; a
// single daemon-wide buffer, on the other hand, races under vtime.Real,
// where connections really are served concurrently. A pooled buffer is
// owned exclusively from Get until after Send returns (both transports
// are done with an unshared frame by then: simnet copies it, TCP writes
// it out synchronously), which is safe in both worlds and keeps the
// amortized growth of the shared buffers.
var replyScratchPool = sync.Pool{New: func() any { return new([]byte) }}

// serveConn answers one request frame of connection c with its reply;
// it is the supernode's transport.FrameHandler, runs in the transport's
// delivery context and never parks. A reply is a Shared frame the
// daemon keeps (the whole host list, the alive acks) or is built in a
// pooled scratch buffer (the transports copy unshared frames on Send,
// so it is immediately reusable), and request payloads are released
// back to the delivering transport once decoded — steady-state, the
// membership plane allocates nothing per exchange beyond what the
// table itself retains.
func (s *Supernode) serveConn(c transport.Conn, m transport.Message) bool {
	reqLen := int64(len(m.Payload))
	_, req, err := proto.Unmarshal(m.Payload)
	m.Release()
	if err != nil || s.isClosed() {
		return false // garbage, or a closed daemon: hang up
	}
	var out transport.Message
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
					out.Payload, _ = proto.AppendMarshal((*scratch)[:0],
						&proto.ShardRedirect{Shard: home, Addr: s.cfg.Federation[home]})
					break
				}
				s.mu.Lock()
				s.stats.Fostered++
				s.mu.Unlock()
			}
		}
		s.register(r.Peer)
		out, scratch = s.peerListReply()
	case *proto.Alive:
		if s.touch(r.ID) {
			out = aliveAckKnown
		} else {
			out = aliveAckUnknown
		}
	case *proto.FetchPeers:
		out, scratch = s.peerListReply()
	case *proto.Digest:
		scratch = replyScratchPool.Get().(*[]byte)
		out.Payload = s.appendDeltaReply((*scratch)[:0], r)
	default:
		return false // protocol violation: drop the connection
	}
	err = c.Send(out)
	s.mu.Lock()
	s.stats.BytesIn += reqLen
	s.stats.BytesOut += int64(len(out.Payload))
	s.mu.Unlock()
	if scratch != nil {
		*scratch = out.Payload[:0]
		replyScratchPool.Put(scratch)
	}
	return err == nil
}

func (s *Supernode) register(p proto.PeerInfo) {
	p = s.cfg.Intern.PeerInfo(p) // share the decode with the whole world
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.rt.Now()
	if e, ok := s.peers[p.ID]; ok {
		e.lastSeen = now
		if i, found := findSorted(s.listCache, p.ID); found && s.listCache[i] != p {
			s.listCache[i] = p
			s.listImage.Set(i, p)
			s.bumpVersionLocked(now)
		}
		if s.cfg.federated() {
			// Even with the info unchanged the stamp refresh matters: it
			// is what lets a re-homed registration win the failover
			// tie-break against a stale foster copy in another shard's
			// snapshot.
			s.mergedUpsertLocked(p, s.cfg.Shard, now.UnixNano())
		}
		return
	}
	e := &peerEntry{lastSeen: now}
	s.peers[p.ID] = e
	i, _ := findSorted(s.listCache, p.ID)
	s.listCache = spliceIn(s.listCache, i, p)
	s.owned = spliceIn(s.owned, i, e)
	s.listImage.Insert(i, p)
	s.bumpVersionLocked(now)
	if s.cfg.federated() {
		s.mergedUpsertLocked(p, s.cfg.Shard, now.UnixNano())
	}
}

// touch refreshes a peer's last-seen stamp, reporting whether the peer
// is actually listed here. The fresher owned claim is re-offered to the
// merged view, where it may now outrank another shard's copy.
func (s *Supernode) touch(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.peers[id]
	if ok {
		e.lastSeen = s.rt.Now()
		if i, found := findSorted(s.listCache, id); found && s.cfg.federated() {
			s.mergedUpsertLocked(s.listCache[i], s.cfg.Shard, e.lastSeen.UnixNano())
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

// cowMergedLocked unshares the merged view and its image before an
// in-place edit: the canonical pair is aliased by every other
// federation member. Fires on the first edit after a quiescent round,
// not once per gossip tick — rebuilds leave the view private.
func (s *Supernode) cowMergedLocked() {
	if s.mergedShared {
		buf := viewPool.Get().(*viewBuf)
		s.merged = append(buf.peers[:0], s.merged...)
		s.meta = append(buf.meta[:0], s.meta...)
		buf.img.CopyFrom(s.mergedImg)
		s.mergedImg, s.mergedShared = buf.img, false
	}
}

// The claim rule of the merged view: merged[id] is the freshest claim on
// id over the owned table and every remote snapshot, a claim being the
// source's PeerInfo and last-seen stamp, and on equal stamps the lower
// shard index wins. The view is thus a function of the sources alone,
// not of the order they changed in, so any edit path — one upsert, one
// drop, a merge pass — must land on what the rule picks; checkMerged
// audits it. Each edit path runs after its source has changed.

// beats reports whether a claim stamped seenA from shard a outranks one
// stamped seenB from shard b.
func beats(seenA int64, a int, seenB int64, b int) bool {
	return seenA > seenB || (seenA == seenB && a < b)
}

// setMergedLocked points merged[i] at a claim; meta is never aliased
// between members (only merged is), so only a changed value copies.
func (s *Supernode) setMergedLocked(i int, p proto.PeerInfo, m entryMeta) {
	if s.merged[i] != p {
		s.cowMergedLocked()
		s.merged[i] = p
		s.mergedImg.Set(i, p)
	}
	s.meta[i] = m
}

// mergedUpsertLocked folds shard's new claim (p, seen) on p.ID into the
// merged view. If the entry was shard's own claim and it went staler,
// another source may outrank it now, so the entry is re-claimed.
func (s *Supernode) mergedUpsertLocked(p proto.PeerInfo, shard int, seen int64) {
	i, found := findSorted(s.merged, p.ID)
	if !found {
		s.cowMergedLocked()
		s.merged = spliceIn(s.merged, i, p)
		s.meta = spliceIn(s.meta, i, entryMeta{shard: shard, seen: seen})
		s.mergedImg.Insert(i, p)
		return
	}
	switch m := s.meta[i]; {
	case m.shard == shard && seen < m.seen:
		s.reclaimLocked(i)
	case m.shard == shard || beats(seen, shard, m.seen, m.shard):
		s.setMergedLocked(i, p, entryMeta{shard: shard, seen: seen})
	}
}

// mergedDropLocked folds the end of shard's claim on id into the merged
// view: an entry that was shard's claim falls to the freshest surviving
// claim, if any, so an owned expiry cannot erase a peer the federation
// still believes in.
func (s *Supernode) mergedDropLocked(id string, shard int) {
	if i, found := findSorted(s.merged, id); found && s.meta[i].shard == shard {
		s.reclaimLocked(i)
	}
}

// reclaimLocked re-derives merged[i] from the sources, dropping it when
// none claims the host any more.
func (s *Supernode) reclaimLocked(i int) {
	if p, m, ok := s.claimLocked(s.merged[i].ID); ok {
		s.setMergedLocked(i, p, m)
		return
	}
	s.cowMergedLocked()
	s.merged = spliceOut(s.merged, i)
	s.meta = spliceOut(s.meta, i)
	s.mergedImg.Remove(i)
}

// sweep purges the peers (and federation members) silent past the TTL,
// then re-arms itself SweepInterval later, until Close.
func (s *Supernode) sweep() {
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
				s.owned = spliceOut(s.owned, i)
				s.listImage.Remove(i)
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
	s.rt.Schedule(s.cfg.SweepInterval, s.sweep)
}

// --- Gossip: digest exchange and anti-entropy ---

// gossipTick pulls from the next federation member in a deterministic
// rotation, and GossipInterval after the exchange ends the next tick
// runs, until Close. Pull replies carry every shard the replier knows,
// so information spreads transitively (O(log K) rounds to converge) even
// though each member contacts one peer per tick. One exchange is in
// flight at a time, which is what keeps s.gossip single-owner.
func (s *Supernode) gossipTick(tick int) {
	if s.isClosed() {
		return
	}
	k := len(s.cfg.Federation)
	s.gossipWith((s.cfg.Shard+1+tick%(k-1))%k, func() {
		s.rt.Schedule(s.cfg.GossipInterval, func() { s.gossipTick(tick + 1) })
	})
}

// gossipWith runs one digest round trip against the member at the
// given shard index — a Call whose continuation applies whatever
// snapshots come back — then runs then. The reply is decoded outside the
// lock into the gossip scratch, each entry resolved against the snapshot
// it is about to replace (captured with the version vector: its spans,
// which hold its values alone once the wire form was dropped) before
// any string is built.
func (s *Supernode) gossipWith(shard int, then func()) {
	addr := s.cfg.Federation[shard]
	g := &s.gossip
	s.mu.Lock()
	s.knownVersionsLocked(g.versions)
	clear(g.resolver.Held)
	for k, r := range s.remote {
		g.resolver.Held[k] = &r.spans
	}
	s.mu.Unlock()

	frame, err := proto.AppendMarshal(g.frame[:0], &proto.Digest{From: s.cfg.Shard, Versions: g.versions})
	if err != nil {
		then()
		return
	}
	g.frame = frame
	transport.Call(s.net, addr, transport.Message{Payload: frame}, s.cfg.GossipInterval*4,
		func(reply transport.Message, err error) {
			if err == nil {
				s.applyDelta(shard, int64(len(frame)), reply)
			}
			then()
		})
}

// applyDelta decodes a digest reply into the gossip scratch and folds
// its snapshots into the federation view; sent is the digest's size.
func (s *Supernode) applyDelta(shard int, sent int64, reply transport.Message) {
	g := &s.gossip
	got := int64(len(reply.Payload))
	err := g.resolver.DecodeShardDelta(reply.Payload, &g.delta)
	reply.Release()
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.GossipExchanges++
	s.stats.GossipBytesOut += sent
	s.stats.GossipBytesIn += got
	// The replying member's serveConn already charges both frames to its
	// BytesIn/BytesOut — charging them here too would double-count every
	// gossip exchange in federation-wide sums (exp.World.FederationStats).
	s.memberSeen[shard] = s.rt.Now()
	for i := range g.delta.Shards {
		s.applyShardLocked(&g.delta.Shards[i], &g.resolver.Spans[i])
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
		if canon, img, ok := it.MergedView(s.merged, s.mergedImg); ok {
			meta := exactClone(s.meta)
			viewPool.Put(&viewBuf{peers: s.merged[:0], meta: s.meta[:0], img: s.mergedImg})
			s.merged, s.meta, s.mergedImg, s.mergedShared = canon, meta, img, true
		}
	}
	for k, r := range s.remote {
		if !r.shared {
			r.peers, r.shared = it.Snapshot(k, r.version, r.peers)
		}
		r.spans = proto.HeldValues(r.peers, r.seen)
	}
	g.delta = proto.ShardDelta{}
	g.resolver.Spans = nil
	clear(g.resolver.Held)
	s.reply.seen = nil
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
// The frame is built straight from the owned table and the stored
// snapshots, no intermediate copies; a snapshot whose spans still hold
// the bytes it arrived in is forwarded as those bytes.
func (s *Supernode) appendDeltaReply(dst []byte, d *proto.Digest) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := len(s.cfg.Federation)
	if d.From >= 0 && d.From < k {
		s.memberSeen[d.From] = s.rt.Now() // the sender is provably alive
	}
	states, held := s.reply.states[:0], s.reply.held[:0]
	reqVersion := func(i int) uint64 {
		if i < len(d.Versions) {
			return d.Versions[i]
		}
		return 0
	}
	if s.ownVersion > reqVersion(s.cfg.Shard) {
		states, held = append(states, s.ownShardStateLocked()), append(held, nil)
	}
	for i := 0; i < k; i++ {
		if r := s.remote[i]; r != nil && r.version > reqVersion(i) {
			states = append(states, proto.ShardState{
				Shard: i, Version: r.version, Stamp: r.stamp,
				Peers: r.peers, Seen: r.seen,
			})
			held = append(held, &r.spans)
		}
	}
	frame := proto.AppendShardDelta(dst, states, held)
	clear(states) // keep no snapshot reachable from the scratch
	clear(held)
	s.reply.states, s.reply.held = states[:0], held[:0]
	return frame
}

// ownShardStateLocked snapshots the owned set for a gossip reply. The
// Peers slice and Image alias the sorted owned table and its wire
// image, so the encoder copies each entry beside its stamp, and Seen
// the reply scratch, all read by the encoder under the same lock.
func (s *Supernode) ownShardStateLocked() proto.ShardState {
	seen := s.reply.seen[:0]
	for _, e := range s.owned {
		seen = append(seen, e.lastSeen.UnixNano())
	}
	s.reply.seen = seen
	return proto.ShardState{
		Shard: s.cfg.Shard, Version: s.ownVersion, Stamp: s.ownStamp,
		Peers: s.listCache, Seen: seen, Image: &s.listImage,
	}
}

// applyShardLocked folds one received snapshot into the federation
// view: it replaces the stored snapshot for that shard, then applies
// the entries the decoder found changed as upserts and drops — or, for
// a shard's first snapshot, or changes counted against other arrays
// than the ones replaced, re-merges with one linear pass.
func (s *Supernode) applyShardLocked(st *proto.ShardState, sp *proto.Spans) {
	k := st.Shard
	if k == s.cfg.Shard || k < 0 || k >= len(s.cfg.Federation) {
		return // own shard is authoritative locally; bogus index dropped
	}
	r := s.remote[k]
	first := r == nil
	if first {
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
	gone, fresh, incremental := sp.Delta(r.peers, r.seen)
	old := r.peers
	// The snapshot takes the decoded buffers and their spans, and the
	// decode scratch takes the ones it vacates (unless they are the
	// interner's, whose spans hold nothing else), so steady gossip
	// decodes into the same few arrays. Values and spans move together:
	// spans held beside values they were not decoded with would hand out
	// wrong ones.
	vacPeers, vacSeen, vacSpans := r.peers[:0], r.seen[:0], r.spans
	if r.shared {
		vacPeers, vacSpans = nil, proto.Spans{}
	}
	*r = remoteShard{version: st.Version, stamp: st.Stamp,
		peers: st.Peers, seen: st.Seen, spans: *sp, appliedAt: s.rt.Now()}
	if first || !incremental {
		s.rebuildMergedLocked(k, r.peers, r.seen)
	} else {
		s.foldChangesLocked(k, old, r, gone, fresh)
	}
	st.Peers, st.Seen, *sp = vacPeers, vacSeen, vacSpans
}

// foldChangesLocked applies shard k's changed claims to the merged
// view: old[gone] are the entries r's snapshot no longer repeats and
// r.peers[fresh] the new ones, both ID-sorted. A changed entry, in both
// lists, is one upsert.
func (s *Supernode) foldChangesLocked(k int, old []proto.PeerInfo, r *remoteShard, gone, fresh []int32) {
	for len(gone) > 0 || len(fresh) > 0 {
		if len(fresh) == 0 || (len(gone) > 0 && old[gone[0]].ID < r.peers[fresh[0]].ID) {
			s.mergedDropLocked(old[gone[0]].ID, k)
			gone = gone[1:]
			continue
		}
		j := fresh[0]
		if len(gone) > 0 && old[gone[0]].ID == r.peers[j].ID {
			gone = gone[1:]
		}
		s.mergedUpsertLocked(r.peers[j], k, stampAt(r.seen, int(j)))
		fresh = fresh[1:]
	}
}

// stampAt is the last-seen stamp of entry i, 0 when the column is short.
func stampAt(seen []int64, i int) int64 {
	if i < len(seen) {
		return seen[i]
	}
	return 0
}

// rebuildMergedLocked re-merges the view against shard k's claim set —
// its new snapshot, or nothing when the shard was swept — in one linear
// two-pointer pass over the (both ID-sorted) current view and the
// claims; per-entry splices would make a boot-storm convergence, or the
// sweep of a dead shard, O(world²). An entry the shard no longer claims,
// or claims staler than before, is re-claimed in passing. The pass
// writes into a pooled viewBuf, whose image is then reset to the new
// view, and hands back the one it vacates; a shared image is never
// written.
func (s *Supernode) rebuildMergedLocked(k int, peers []proto.PeerInfo, stamps []int64) {
	buf := viewPool.Get().(*viewBuf)
	if cap(buf.peers) < len(s.merged) || cap(buf.meta) < len(s.merged) {
		// Pool miss, or a pair the world outgrew: size for the union plus
		// headroom, so a growing world regrows every eighth, not every tick.
		n := len(s.merged) + len(peers)
		buf.peers, buf.meta = make([]proto.PeerInfo, 0, n+n/8), make([]entryMeta, 0, n+n/8)
	}
	out, metaOut := buf.peers[:0], buf.meta[:0]
	claim := func(id string) {
		if p, m, ok := s.claimLocked(id); ok {
			out, metaOut = append(out, p), append(metaOut, m)
		}
	}
	i, j := 0, 0
	for i < len(s.merged) || j < len(peers) {
		switch {
		case j >= len(peers) || (i < len(s.merged) && s.merged[i].ID < peers[j].ID):
			if s.meta[i].shard != k {
				out = append(out, s.merged[i])
				metaOut = append(metaOut, s.meta[i])
			} else {
				claim(s.merged[i].ID) // no longer claimed by this shard
			}
			i++
		case i >= len(s.merged) || peers[j].ID < s.merged[i].ID:
			// New host for the merged view.
			out = append(out, peers[j])
			metaOut = append(metaOut, entryMeta{shard: k, seen: stampAt(stamps, j)})
			j++
		default: // same ID: resolve precedence
			m, seen := s.meta[i], stampAt(stamps, j)
			switch {
			case m.shard == k && seen < m.seen:
				claim(peers[j].ID)
			case m.shard == k || beats(seen, k, m.seen, m.shard):
				out = append(out, peers[j])
				metaOut = append(metaOut, entryMeta{shard: k, seen: seen})
			default:
				out = append(out, s.merged[i])
				metaOut = append(metaOut, m)
			}
			i++
			j++
		}
	}
	img := buf.img
	img.Reset(out)
	if !s.mergedShared {
		buf.peers, buf.meta, buf.img = s.merged[:0], s.meta[:0], s.mergedImg
		viewPool.Put(buf)
	}
	s.merged, s.meta, s.mergedImg, s.mergedShared = out, metaOut, img, false
}

// claimLocked finds the claim the rule picks for a host, over the owned
// table and every remote snapshot as they stand.
func (s *Supernode) claimLocked(id string) (best proto.PeerInfo, bm entryMeta, ok bool) {
	if i, found := findSorted(s.listCache, id); found {
		best, bm, ok = s.listCache[i], entryMeta{shard: s.cfg.Shard, seen: s.owned[i].lastSeen.UnixNano()}, true
	}
	for k, r := range s.remote {
		if i, found := findSorted(r.peers, id); found {
			if seen := stampAt(r.seen, i); !ok || beats(seen, k, bm.seen, bm.shard) {
				best, bm, ok = r.peers[i], entryMeta{shard: k, seen: seen}, true
			}
		}
	}
	return best, bm, ok
}

// checkMerged audits the merged view against the claim rule: it must
// hold exactly the claim the rule picks for every host some source
// claims, attributed to its source, and nothing else. The owned table's
// and the merged view's wire images must be exactly their encodings,
// and a private view must not hold the interner's canonical image.
func (s *Supernode) checkMerged() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.listImage.Encodes(s.listCache) {
		return fmt.Errorf("overlay: shard %d: the owned image is not the encoding of the owned table", s.cfg.Shard)
	}
	if !s.cfg.federated() {
		return nil
	}
	if len(s.meta) != len(s.merged) {
		return fmt.Errorf("overlay: shard %d: %d meta for %d merged entries", s.cfg.Shard, len(s.meta), len(s.merged))
	}
	if !s.mergedImg.Encodes(s.merged) {
		return fmt.Errorf("overlay: shard %d: the merged image is not the encoding of the merged view", s.cfg.Shard)
	}
	if !s.mergedShared && s.cfg.Intern.sharesImage(s.mergedImg) {
		return fmt.Errorf("overlay: shard %d: a private merged view holds the canonical image", s.cfg.Shard)
	}
	ids := make([]string, 0, len(s.merged))
	for _, p := range s.listCache {
		ids = append(ids, p.ID)
	}
	for _, r := range s.remote {
		for _, p := range r.peers {
			ids = append(ids, p.ID)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) != len(s.merged) {
		return fmt.Errorf("overlay: shard %d: merged view lists %d hosts, the sources claim %d", s.cfg.Shard, len(s.merged), len(ids))
	}
	for i, id := range ids {
		p, m, _ := s.claimLocked(id)
		if s.merged[i] != p || s.meta[i] != m {
			return fmt.Errorf("overlay: shard %d: merged[%d] = %+v %+v, the claim rule picks %+v %+v",
				s.cfg.Shard, i, s.merged[i], s.meta[i], p, m)
		}
	}
	return nil
}
