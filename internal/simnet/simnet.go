package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// Topology supplies base latency and capacity between hosts, aggregated
// at site granularity.
type Topology interface {
	// Site maps a host ID to its site name; unknown hosts return "".
	Site(host string) string
	// SiteLatency returns the base one-way latency between two sites.
	SiteLatency(a, b string) time.Duration
	// SiteBps returns the shared pipe capacity between two sites.
	SiteBps(a, b string) int64
}

// Config tunes the noise and capacity model.
type Config struct {
	// Seed makes every jitter sample reproducible.
	Seed int64
	// JitterFrac is the jitter standard deviation as a fraction of the
	// base one-way latency.
	JitterFrac float64
	// JitterFloor is an additive jitter standard deviation, dominating on
	// near-zero-latency local links (models end-host scheduling noise).
	JitterFloor time.Duration
	// NICBps is each host's network interface capacity.
	NICBps int64
}

// DefaultConfig reflects the paper's setting: enough probe noise that
// lyon/rennes/bordeaux (≈1 ms apart) interleave in the measured ranking
// while nancy and sophia stay at their extremes.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		JitterFrac:  0.08,
		JitterFloor: 250 * time.Microsecond,
		NICBps:      1_000_000_000,
	}
}

// Net is a simulated network bound to one scheduler — or, in sharded
// mode (NewSharded), to the shards of a vtime.Domain.
//
// Net carries no lock of its own: every method (and every method of the
// conns and listeners it hands out) executes in scheduler context —
// actor goroutines and event callbacks, of which exactly one runs at any
// moment per shard — so the scheduler's own synchronization serializes
// all state and publishes it across goroutines. Callers outside that
// context (tests poking FailHost between RunFor pumps) are safe as long
// as the scheduler is idle at the time, which Wait/RunFor guarantee on
// return. This is the single-writer design that keeps the per-message
// fast path free of lock traffic; see docs/PERF.md.
//
// In sharded mode all mutable per-message state (jitter sequence maps,
// buffer pools, delivery free lists, outboxes) lives in per-shard
// netShard structs, each touched only by its own shard's event loop
// during a window; everything that spans shards (host table, pipe table)
// is pre-built and read-only while windows run, or touched only at
// barriers (cross-shard serializer frontiers, see shard.go).
type Net struct {
	topo Topology
	cfg  Config

	sh       []*netShard // per-shard mutable state; len 1 when unsharded
	sharded  bool
	check    bool        // panic on lookahead/causality violations (VTIME_CHECK)
	faults   *faultState // nil until a Set* fault API is used; see faults.go
	hosts    map[string]*netHost
	pipes    map[sitePair]*serializer
	nextRank int
	xscratch []xmsg        // barrier merge scratch, reused across windows
	winID    uint64        // current window, bumped at each barrier
	merged   []*serializer // serializers touched by the current merge
}

// netShard is the mutable state one shard's event loop owns exclusively
// while a window runs. The outbox is single-writer (the owning shard)
// and is read only at barriers, with the Domain's barrier providing the
// happens-before edge — no locks anywhere on the message path.
type netShard struct {
	rt      *vtime.Scheduler
	flowSeq map[flowKey]uint64
	ports   map[string]int // port name -> flowKey.port; keys are owned copies
	bufPool transport.BufferPool
	delFree *delivery // recycled delivery events
	out     []xmsg    // cross-shard emissions this window
	seq     uint64    // emission sequence, tiebreak in the merge sort
}

func newNetShard(rt *vtime.Scheduler) *netShard {
	return &netShard{rt: rt, flowSeq: make(map[flowKey]uint64), ports: make(map[string]int)}
}

// flowKey identifies one flow for jitter purposes: the dialing host,
// the destination host and the destination port (the service). Jitter
// noise is drawn from an independent seeded stream per (flow, dial
// sequence), so the draws one service's traffic consumes can never
// perturb the timing of another's — membership gossip, keep-alives and
// job traffic coexist without entangling their randomness. That
// compositionality is what lets a federated world (extra supernodes,
// extra control traffic) reproduce the data-plane timeline of a
// standalone one bit for bit.
//
// The key holds no string. A dialled address is often a substring of a
// decoded frame (a Prepare's slot table, wire.Decoder.InternStrings),
// and a string-keyed map re-stores its key on every assignment, so a
// counter bumped under such a key would pin the whole frame for the
// life of the world. Hosts are keyed by their table entry and the port
// by a per-shard number (netShard.portNum); the names still seed the
// stream (flowSeed).
type flowKey struct {
	from, to *netHost
	port     int
}

// portNum numbers a destination port name on this shard. The map keeps
// an owned copy of the name and is written only when the name is new.
func (sh *netShard) portNum(port string) int {
	p, ok := sh.ports[port]
	if !ok {
		p = len(sh.ports)
		sh.ports[strings.Clone(port)] = p
	}
	return p
}

// flowSource is a SplitMix64 stream, the per-flow jitter source: one
// word of state instead of rand.NewSource's 607, since every
// request/reply exchange dials a fresh conn and carries two of them in
// its handshake record.
type flowSource struct{ state uint64 }

func (s *flowSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *flowSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *flowSource) Seed(seed int64) {
	s.state = uint64(seed)
}

// flowSeed mints the jitter stream for the seq-th dial of a flow. The
// seed folds the config seed with the flow identity and the per-flow
// dial sequence, so a flow's noise is a pure function of (world seed,
// flow, its own dial history) — independent of any other traffic. The
// sequence counter is per shard: a flow is keyed by its dialing host,
// which lives on exactly one shard, so the counter is exclusive to that
// shard's event loop.
func (sh *netShard) flowSeed(seed int64, from, to *netHost, port string) uint64 {
	key := flowKey{from: from, to: to, port: sh.portNum(port)}
	seq := sh.flowSeq[key]
	sh.flowSeq[key] = seq + 1
	h := fnvMix(uint64(seed), from.id)
	h = fnvMix(h, to.id)
	h = fnvMix(h, port)
	return h ^ (seq * 0x9e3779b97f4a7c15)
}

// fnvMix folds a string into a running FNV-1a style hash.
func fnvMix(h uint64, s string) uint64 {
	const prime64 = 1099511628211
	h ^= 14695981039346656037
	h *= prime64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// sitePair is a normalized (sorted) site pair, the backbone pipe key.
// A comparable struct key avoids the per-lookup string concatenation the
// old "a|b" keys paid on every message.
type sitePair struct{ a, b string }

func pipeKey(a, b string) sitePair {
	if a > b {
		a, b = b, a
	}
	return sitePair{a, b}
}

type netHost struct {
	id   string
	site string
	sh   *netShard // owning shard's state
	rank int       // global boot-order rank (merge tiebreak)
	// listeners is a small linear-scan table: a host owns two or three
	// listeners (MPD, RS, plus MPI process ports while hosting a job),
	// and a per-host map costs ~200 bytes of buckets — real money at a
	// million hosts.
	listeners []portListener
	nicOut    serializer
	nicIn     serializer
	nextPort  int
	down      bool // failed hosts drop all traffic
}

// portListener is one bound port of a host.
type portListener struct {
	port string
	l    *listener
}

// listener returns the listener bound to a port, or nil.
func (h *netHost) listener(port string) *listener {
	for _, pl := range h.listeners {
		if pl.port == port {
			return pl.l
		}
	}
	return nil
}

func (h *netHost) addListener(port string, l *listener) {
	h.listeners = append(h.listeners, portListener{port: port, l: l})
}

func (h *netHost) dropListener(port string) {
	for i, pl := range h.listeners {
		if pl.port == port {
			last := len(h.listeners) - 1
			h.listeners[i] = h.listeners[last]
			h.listeners[last] = portListener{}
			h.listeners = h.listeners[:last]
			return
		}
	}
}

// serializer models one capacity-limited resource. A transfer starting at
// t of size bytes holds the resource until max(busy, t) + size/bps.
//
// The frontier model is exact only when reservations arrive in
// nondecreasing start order — true sequentially (events execute in
// virtual-time order) and within one shard's window, but NOT for the
// barrier merge: a cross-shard reservation replayed at the barrier can
// carry a start earlier than local reservations the window already
// made. A receiver NIC is the one serializer both kinds share, so in
// sharded mode its local reservations go through reserveLocal, which
// logs the window's (start, rank, finish) sequence; the merge then
// computes each cross reservation's finish by replaying the merged
// (start, rank)-sorted sequence from the window-start frontier
// (Net.reserveCross) — the order the sequential run would have used.
type serializer struct {
	bps  int64
	busy time.Duration

	// Sharded-mode exact-merge state (receiver NICs only).
	winID   uint64 // window the log belongs to
	winBusy time.Duration
	log     []resv
	mergeID uint64 // barrier this serializer last joined
	pos     int    // log replay cursor during a merge
	xbusy   time.Duration
}

// resv is one logged local reservation.
type resv struct {
	start, finish time.Duration
	rank          int
	size          int64
}

func (s *serializer) cost(size int64) time.Duration {
	return time.Duration(float64(size*8) / float64(s.bps) * float64(time.Second))
}

func (s *serializer) reserve(start time.Duration, size int64) time.Duration {
	if s.busy < start {
		s.busy = start
	}
	s.busy += s.cost(size)
	return s.busy
}

// reserveLocal is reserve plus the window log the barrier merge needs
// to slot cross-shard reservations into their exact sequential
// position. winID identifies the current window; a stale log is reset
// lazily, so idle serializers cost nothing at barriers.
func (s *serializer) reserveLocal(winID uint64, start time.Duration, rank int, size int64) time.Duration {
	if s.winID != winID {
		s.winID = winID
		s.winBusy = s.busy
		s.log = s.log[:0]
	}
	f := s.reserve(start, size)
	s.log = append(s.log, resv{start: start, finish: f, rank: rank, size: size})
	return f
}

// New creates a simulated network over the scheduler and topology. Its
// host and pipe tables fill lazily, as hosts first appear.
func New(rt *vtime.Scheduler, topo Topology, cfg Config) *Net {
	n := newNet(topo, cfg, 1, 0)
	n.sh[0] = newNetShard(rt)
	return n
}

// newNet is the body New and NewSharded share: the configuration with
// its defaults, one empty slot per shard, and empty tables, the host
// map sized for hosts entries.
func newNet(topo Topology, cfg Config, shards, hosts int) *Net {
	if cfg.NICBps <= 0 {
		cfg.NICBps = 1_000_000_000
	}
	return &Net{
		topo:  topo,
		cfg:   cfg,
		sh:    make([]*netShard, shards),
		hosts: make(map[string]*netHost, hosts),
		pipes: make(map[sitePair]*serializer),
		winID: 1,
	}
}

// Node returns the transport.Network view bound to one host: Listen binds
// local ports, Dial originates from that host.
func (n *Net) Node(hostID string) transport.Network {
	return &nodeNet{n: n, host: hostID}
}

// FailHost makes a host unreachable: its listeners stop accepting, new
// messages to and from it are dropped. Used by fault-injection tests.
func (n *Net) FailHost(hostID string) {
	if h := n.host(hostID); h != nil {
		h.down = true
	}
}

// RestoreHost brings a failed host back (listeners must be re-created).
func (n *Net) RestoreHost(hostID string) {
	if h := n.host(hostID); h != nil {
		h.down = false
	}
}

// BaseOneWay exposes the noise-free one-way latency between two hosts,
// used by experiments to compute the "true" ranking.
func (n *Net) BaseOneWay(a, b string) time.Duration {
	return n.topo.SiteLatency(n.topo.Site(a), n.topo.Site(b))
}

// addHost initialises h in place as the next-ranked host and enters it in
// the host table. Ranks follow registration order: the boot order handed
// to NewSharded, first use on the lazy path.
func (n *Net) addHost(h *netHost, id, site string, sh *netShard) {
	*h = netHost{
		id:       id,
		site:     site,
		sh:       sh,
		rank:     n.nextRank,
		nicOut:   serializer{bps: n.cfg.NICBps},
		nicIn:    serializer{bps: n.cfg.NICBps},
		nextPort: 20000,
	}
	n.nextRank++
	n.hosts[id] = h
}

// host returns the state of one host, or nil when the topology does not
// know it. In single-shard mode unknown-but-mapped hosts are created
// lazily; in sharded mode the host table is frozen at NewSharded (lazy
// insertion from concurrent shard loops would race), so a host that was
// not pre-registered is simply unreachable.
func (n *Net) host(id string) *netHost {
	h := n.hosts[id]
	if h == nil && !n.sharded {
		site := n.topo.Site(id)
		if site == "" {
			return nil
		}
		h = new(netHost)
		n.addHost(h, strings.Clone(id), site, n.sh[0]) // id may view a caller's frame
	}
	return h
}

// pipe returns (lazily creating) the shared backbone serializer between
// two sites.
func (n *Net) pipe(siteA, siteB string) *serializer {
	key := pipeKey(siteA, siteB)
	p := n.pipes[key]
	if p == nil {
		p = &serializer{bps: n.topo.SiteBps(siteA, siteB)}
		n.pipes[key] = p
	}
	return p
}

// jitter samples non-negative latency noise for a base latency from the
// flow's own stream. One message consumes one draw, in per-flow order —
// reproducibility holds flow by flow, so unrelated traffic cannot shift
// another flow's noise.
func (n *Net) jitter(rng *rand.Rand, base time.Duration) time.Duration {
	std := float64(base)*n.cfg.JitterFrac + float64(n.cfg.JitterFloor)
	j := rng.NormFloat64() * std
	if j < 0 {
		j = -j
	}
	return time.Duration(j)
}

// splitAddr separates "host:port"; hosts contain dots but no colons.
func splitAddr(addr string) (host, port string, err error) {
	i := strings.LastIndex(addr, ":")
	if i <= 0 || i == len(addr)-1 {
		return "", "", fmt.Errorf("simnet: bad address %q", addr)
	}
	return addr[:i], addr[i+1:], nil
}
