package simnet

import (
	"math/rand"
	"time"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// nodeNet is the per-host transport.Network view.
type nodeNet struct {
	n    *Net
	host string
}

func (nn *nodeNet) Listen(addr string) (transport.Listener, error) {
	host, port, err := splitAddr(addr)
	if err != nil {
		return nil, err
	}
	if host != nn.host {
		return nil, transport.ErrUnreachable
	}
	h := nn.n.host(host)
	if h == nil || h.down {
		return nil, transport.ErrUnreachable
	}
	laddr := addr
	if port == "0" {
		for {
			h.nextPort++
			port = itoa(h.nextPort)
			if h.listener(port) == nil {
				break
			}
		}
		laddr = host + ":" + port
	}
	if h.listener(port) != nil {
		return nil, transport.ErrClosed // port in use
	}
	l := &listener{
		n:    nn.n,
		rt:   h.sh.rt,
		addr: laddr, // the caller's string when the port stands; no rebuild
		host: host,
		port: port,
	}
	h.addListener(port, l)
	return l, nil
}

// Dial is DialFunc plus one park: the calling actor blocks for the
// handshake's round trip, like TCP's connect.
func (nn *nodeNet) Dial(addr string) (c transport.Conn, err error) {
	var wake *vtime.Queue[struct{}]
	pending := true
	nn.DialFunc(addr, func(dc transport.Conn, derr error) {
		c, err, pending = dc, derr, false
		if wake != nil {
			wake.Push(struct{}{})
		}
	})
	if pending { // the handshake is on the wire: its result event wakes us
		wake = vtime.NewQueue[struct{}](nn.n.hosts[nn.host].sh.rt)
		wake.Pop()
	}
	return c, err
}

// DialFunc starts a handshake (transport.CallbackNetwork): the SYN
// departs now and done runs in the event that ends the handshake, on the
// dialer's shard, one round trip later. Nobody parks. Errors known
// without touching the wire reach done before DialFunc returns.
func (nn *nodeNet) DialFunc(addr string, done func(transport.Conn, error)) {
	rhost, rport, err := splitAddr(addr)
	if err != nil {
		done(nil, err)
		return
	}
	n := nn.n
	from := n.host(nn.host)
	if from == nil {
		done(nil, transport.ErrUnreachable)
		return
	}
	if from.down {
		done(nil, transport.ErrClosed)
		return
	}
	to := n.host(rhost)
	if to == nil {
		done(nil, transport.ErrUnreachable)
		return
	}
	// The whole connection — handshake and both directions of later
	// traffic — draws its jitter from one per-flow stream minted here,
	// keyed by (dialer, destination host, destination port, dial
	// sequence). See flowKey for why.
	sh := from.sh
	rng, src := sh.flowRNG(n.cfg.Seed, flowKey{from: nn.host, to: rhost, port: rport})
	hs := &handshake{
		n: n, from: from, to: to, port: rport,
		pipe: n.pipe(from.site, to.site),
		base: n.topo.SiteLatency(from.site, to.site),
		rng:  rng, src: src,
		done: done,
	}
	if fa := n.faults; fa != nil && fa.cut(from.site, to.site) {
		// A dial across an active partition cut fails with ErrUnreachable
		// (hs.client stays nil) after one noisy round trip, the time an
		// RST (or the dialer's own SYN give-up) would take. It never
		// leaves the dialer's shard — no reservations, no frame — and
		// consumes exactly one jitter draw from the freshly minted flow
		// stream, which dies with the failed dial, so its draw count
		// perturbs no other flow.
		sh.rt.ScheduleArg(2*hs.base+n.jitter(rng, hs.base), fireDialResult, hs)
		return
	}
	// The SYN travels one way; the handshake result travels back
	// (fireSYN). The ephemeral port is allocated here, not when the
	// SYN lands: that would mutate the dialer host from the
	// listener's shard. Port numbers never feed timing or payload
	// bytes.
	from.nextPort++
	hs.local = nn.host + ":" + itoa(from.nextPort)
	var x xmsg
	x.kind, x.size, x.hs = xDial, 64, hs
	x.from, x.to, x.pipe, x.base = from, to, hs.pipe, hs.base
	n.depart(&x, rng, src)
}

// After schedules a client deadline on the dialing host's shard
// (transport.CallbackNetwork). A stopped deadline leaves the event heap
// at once.
func (nn *nodeNet) After(d time.Duration, fn func()) (stop func()) {
	t := nn.n.hosts[nn.host].sh.rt.After(d, fn)
	return func() { t.Stop() }
}

func itoa(v int) string {
	// Tiny positive-int formatter to avoid strconv in the hot path.
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

type listener struct {
	n    *Net
	rt   *vtime.Scheduler
	addr string
	host string
	port string
	// Exactly one of handler/acceptq carries inbound conns. The handler
	// (transport.CallbackListener) is the daemon path: no Accept actor
	// parked per listener, no queue allocated. The queue is built lazily
	// for Accept users. Both are touched only from the owning shard's
	// event loop, so no lock is needed.
	handler func(transport.Conn)
	acceptq *vtime.Queue[*conn]
	closed  bool
}

// deliver hands an accepted server endpoint to the listener's consumer:
// the installed handler (called inline from the delivery event) or the
// accept queue.
func (l *listener) deliver(c *conn) {
	if l.handler != nil {
		l.handler(c)
		return
	}
	if l.acceptq == nil {
		l.acceptq = vtime.NewQueue[*conn](l.rt)
	}
	l.acceptq.Push(c)
}

// OnConn installs the inbound-connection handler (transport.CallbackListener).
func (l *listener) OnConn(h func(transport.Conn)) {
	if l.handler != nil {
		panic("simnet: OnConn installed twice on " + l.addr)
	}
	l.handler = h
}

func (l *listener) Accept() (transport.Conn, error) {
	if l.acceptq == nil {
		if l.closed {
			return nil, transport.ErrClosed
		}
		l.acceptq = vtime.NewQueue[*conn](l.rt)
	}
	c, ok := l.acceptq.Pop()
	if !ok {
		return nil, transport.ErrClosed
	}
	return c, nil
}

func (l *listener) Close() error {
	if !l.closed {
		l.closed = true
		if h := l.n.hosts[l.host]; h != nil {
			h.dropListener(l.port)
		}
	}
	if l.acceptq != nil {
		l.acceptq.Close()
	}
	return nil
}

func (l *listener) Addr() string { return l.addr }

// conn is one endpoint. Delivery events hand arrivals to the installed
// handler or queue them for Recv; lastArrival clamps them to FIFO order.
//
// The host, pipe and base-latency pointers are resolved once at
// connection setup, so the per-message path does no map lookups at all.
type conn struct {
	n      *Net
	local  string
	remote string
	lh     *netHost    // local endpoint host
	rh     *netHost    // remote endpoint host
	pipe   *serializer // backbone pipe between the two sites
	base   time.Duration
	// The flow's jitter stream: one object shared with the peer when both
	// endpoints live on one shard; a private stream per endpoint, synced
	// from each crossing frame, when they do not.
	rng *rand.Rand
	src *flowSource
	// Exactly one of handler/inbox consumes arrivals, on the local host's
	// shard. A served endpoint never builds the queue, a send-only one
	// carries neither: the pull path builds it on first use (queue).
	handler     func(transport.Message, error)
	inbox       *vtime.Queue[transport.Message]
	peer        *conn
	closed      bool
	peerClosed  bool          // the peer's FIN has arrived
	lastArrival time.Duration // FIFO clamp for messages *arriving at peer*
}

// newConnPair wires both endpoints of an accepted handshake. The dialing
// endpoint keeps the stream Dial minted; rng/src is the accepting
// endpoint's — the same object when the endpoints share a shard, the
// listener's continuation of it when they do not (see fireSYN), which
// reproduces the sequential shared-stream draw order for alternating
// request/reply traffic.
func newConnPair(hs *handshake, serverAddr string, back time.Duration, rng *rand.Rand, src *flowSource) (client, server *conn) {
	ch, sh := hs.from, hs.to
	client = &conn{
		n: hs.n, local: hs.local, remote: serverAddr,
		lh: ch, rh: sh, pipe: hs.pipe, base: hs.base,
		rng: hs.rng, src: hs.src,
	}
	server = &conn{
		n: hs.n, local: serverAddr, remote: hs.local,
		lh: sh, rh: ch, pipe: hs.pipe, base: back,
		rng: rng, src: src,
	}
	client.peer = server
	server.peer = client
	return client, server
}

// frameOverhead approximates per-message header cost on the wire.
const frameOverhead = 64

func (c *conn) Send(m transport.Message) error {
	if c.closed || c.lh.down {
		return transport.ErrClosed
	}
	// Messages into the void are silently dropped, like TCP segments
	// toward a dead host; the sender learns via higher-level timeout.
	// Peer-close visibility is the one liveness rule that depends on the
	// engine: a same-shard peer's closed flag is read directly; a peer on
	// another shard is known only as of its FIN's arrival — the causal
	// limit of what a remote shard can observe.
	if c.rh.down || c.peerClosed || (c.lh.sh == c.rh.sh && c.peer.closed) {
		return nil
	}
	n := c.n
	if fa := n.faults; fa != nil && fa.cut(c.lh.site, c.rh.site) {
		// A partition swallows the frame before it reserves or draws
		// anything; the sender learns via higher-level timeout, like
		// rh.down.
		return nil
	}
	// Field by field: a composite literal would be built in a stack
	// temporary and copied, doubling the frame on every actor's stack.
	var x xmsg
	x.kind, x.size, x.c, x.msg = xSend, m.Size()+frameOverhead, c, m
	x.from, x.to, x.pipe, x.base = c.lh, c.rh, c.pipe, c.base
	n.depart(&x, c.rng, c.src)
	return nil
}

func (c *conn) Recv() (transport.Message, error) { return c.RecvTimeout(-1) }

func (c *conn) RecvTimeout(d time.Duration) (transport.Message, error) {
	m, err := c.queue().PopTimeout(d)
	switch err {
	case nil:
		return m, nil
	case vtime.ErrTimeout:
		return transport.Message{}, transport.ErrTimeout
	default:
		return transport.Message{}, transport.ErrClosed
	}
}

// queue builds the pull path's inbox on first use, closed if the endpoint is.
func (c *conn) queue() *vtime.Queue[transport.Message] {
	if c.inbox == nil {
		c.inbox = vtime.NewQueue[transport.Message](c.lh.sh.rt)
		if c.closed || c.peerClosed {
			c.inbox.Close()
		}
	}
	return c.inbox
}

// OnRecv installs the frame handler (transport.CallbackConn): delivery
// events call it from now on. Frames that arrived earlier are handed
// over first, in order, then the peer's close if that arrived too.
func (c *conn) OnRecv(h func(transport.Message, error)) {
	if c.handler != nil {
		panic("simnet: OnRecv installed twice on " + c.local)
	}
	c.handler = h
	q := c.inbox
	c.inbox = nil
	for q != nil && !c.closed {
		m, ok := q.TryPop()
		if !ok {
			if c.peerClosed {
				h(transport.Message{}, transport.ErrClosed)
			}
			return
		}
		h(m, nil)
	}
}

func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.inbox != nil {
		c.inbox.Close()
	}
	// The FIN departs with nothing to reserve or draw; land computes its
	// arrival, so across shards it still trails same-window data.
	var x xmsg
	x.kind, x.at, x.rank, x.c = xFin, c.lh.sh.rt.Elapsed(), c.lh.rank, c
	x.from, x.to, x.base = c.lh, c.rh, c.base
	c.n.route(&x)
	return nil
}

func (c *conn) LocalAddr() string  { return c.local }
func (c *conn) RemoteAddr() string { return c.remote }

var _ transport.CallbackConn = (*conn)(nil)
var _ transport.CallbackListener = (*listener)(nil)
var _ transport.CallbackNetwork = (*nodeNet)(nil)
