package simnet

import (
	"math/rand"
	"strconv"
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
			port = strconv.Itoa(h.nextPort)
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
		h:    h,
		addr: laddr, // the caller's string when the port stands; no rebuild
		port: port,
	}
	h.addListener(port, l)
	return l, nil
}

// Dial is DialFunc plus one park: the calling actor blocks on its
// vtime.Parker for the handshake's round trip, like TCP's connect.
func (nn *nodeNet) Dial(addr string) (transport.Conn, error) {
	hs, err := nn.dial(addr, nil)
	if err != nil {
		return nil, err
	}
	// The handshake is on the wire; nothing else on this shard runs
	// until we park, so its result event cannot have fired yet.
	p := hs.client.lh.sh.rt.Parker()
	hs.done = parkedDial{p}
	p.Park()
	if !hs.accepted {
		return nil, transport.ErrUnreachable
	}
	return &hs.client, nil
}

// DialFunc starts a handshake (transport.Network): the SYN
// departs now and done runs in the event that ends the handshake, on the
// dialer's shard, one round trip later. Nobody parks. Errors known
// without touching the wire reach done before DialFunc returns.
func (nn *nodeNet) DialFunc(addr string, done transport.Dialed) {
	if _, err := nn.dial(addr, done); err != nil {
		done.Dialed(nil, err)
	}
}

// dial starts a handshake whose result goes to done, which Dial
// installs itself before the result can fire when it passes nil. A
// dial is one allocation: the handshake record also holds both
// endpoints and both jitter streams.
func (nn *nodeNet) dial(addr string, done transport.Dialed) (*handshake, error) {
	rhost, rport, err := splitAddr(addr)
	if err != nil {
		return nil, err
	}
	n := nn.n
	from := n.host(nn.host)
	if from == nil {
		return nil, transport.ErrUnreachable
	}
	if from.down {
		return nil, transport.ErrClosed
	}
	to := n.host(rhost)
	if to == nil {
		return nil, transport.ErrUnreachable
	}
	// The whole connection — handshake and both directions of later
	// traffic — draws its jitter from one per-flow stream minted here,
	// keyed by (dialer, destination host, destination port, dial
	// sequence). See flowKey for why.
	sh := from.sh
	hs := &handshake{done: done}
	c := &hs.client
	c.n, c.lh, c.rh = n, from, to
	c.pipe, c.base = n.pipe(from.site, to.site), n.topo.SiteLatency(from.site, to.site)
	hs.src.state = sh.flowSeed(n.cfg.Seed, from, to, rport)
	if fa := n.faults; fa != nil && fa.cut(from.site, to.site) {
		// A dial across an active partition cut fails with ErrUnreachable
		// (hs.accepted stays false) after one noisy round trip, the time
		// an RST (or the dialer's own SYN give-up) would take. It never
		// leaves the dialer's shard — no reservations, no frame — and
		// consumes exactly one jitter draw from the freshly minted flow
		// stream, which dies with the failed dial, so its draw count
		// perturbs no other flow.
		sh.rt.ScheduleArg(2*c.base+n.jitter(rand.New(&hs.src), c.base), fireDialResult, hs)
		return hs, nil
	}
	// The SYN travels one way; the handshake result travels back
	// (fireSYN). The ephemeral port is allocated here, not when the
	// SYN lands: that would mutate the dialer host from the
	// listener's shard. Port numbers never feed timing or payload
	// bytes.
	from.nextPort++
	c.local = hostPort(nn.host, from.nextPort)
	hs.port = rport
	var x xmsg
	x.kind, x.size, x.hs = xDial, 64, hs
	x.from, x.to, x.pipe, x.base = from, to, c.pipe, c.base
	n.depart(&x, &hs.src)
	return hs, nil
}

// hostPort builds "host:port" in one allocation.
func hostPort(host string, port int) string {
	var buf [48]byte
	b := append(buf[:0], host...)
	b = append(b, ':')
	return string(strconv.AppendInt(b, int64(port), 10))
}

type listener struct {
	h    *netHost
	addr string
	port string
	// sink takes each inbound conn in its SYN's event, on the owning
	// shard: OnConn's handler or Accept's backlog (pull.go). A listener
	// without one refuses SYNs.
	sink   interface{ take(c *conn) }
	closed bool
}

// onConn is an OnConn handler as a listener's sink.
type onConn func(transport.Conn)

func (h onConn) take(c *conn) { h(c) }

// OnConn installs the inbound-connection handler (transport.Listener).
func (l *listener) OnConn(h func(transport.Conn)) { l.install(onConn(h)) }

func (l *listener) install(s interface{ take(c *conn) }) {
	if l.sink != nil {
		panic("simnet: OnConn or Accept after the other on " + l.addr)
	}
	l.sink = s
}

func (l *listener) Close() error {
	if !l.closed {
		l.closed = true
		l.h.dropListener(l.port)
	}
	return nil
}

func (l *listener) Addr() string { return l.addr }

// conn is one endpoint. Delivery events hand arrivals to the installed
// handler; lastArrival clamps them to FIFO order.
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
	src *flowSource
	// handler consumes arrivals: OnRecv's Receiver or Recv's inbox
	// (pull.go). What lands while there is none is dropped.
	handler     transport.Receiver
	deadline    vtime.Timer // OnRecv's first-arrival deadline, zero when disarmed
	peer        *conn
	closed      bool
	peerClosed  bool          // the peer's FIN has arrived
	expired     bool          // the deadline fired: the handler has heard its last
	lastArrival time.Duration // FIFO clamp for messages *arriving at peer*
}

// accept wires both endpoints of an accepted handshake into its record:
// the dialing endpoint, whose path dial filled in, and the accepting
// one. The dialing endpoint keeps the stream Dial minted; src is the
// accepting endpoint's — the same object when the endpoints share a
// shard, the listener's continuation of it when they do not (see
// fireSYN), which reproduces the sequential shared-stream draw order
// for alternating request/reply traffic.
func (hs *handshake) accept(serverAddr string, back time.Duration, src *flowSource) {
	c := &hs.client
	hs.accepted = true
	c.remote, c.src, c.peer = serverAddr, &hs.src, &hs.server
	hs.server = conn{
		n: c.n, local: serverAddr, remote: c.local,
		lh: c.rh, rh: c.lh, pipe: c.pipe, base: back,
		src: src, peer: c,
	}
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
	n.depart(&x, c.src)
	return nil
}

// OnRecv installs the frame handler (transport.Conn). Nothing that
// landed before is replayed: a frame was dropped, a FIN only marked the
// endpoint. A positive timeout arms the deadline on this host's shard;
// the first arrival or Close disarms it.
func (c *conn) OnRecv(r transport.Receiver, timeout time.Duration) {
	if c.handler != nil {
		panic("simnet: OnRecv installed twice on " + c.local)
	}
	c.handler = r
	if timeout > 0 && !c.closed {
		c.deadline = c.lh.sh.rt.AfterArg(timeout, fireDeadline, c)
	}
}

// disarm cancels a pending deadline, which leaves the event heap at once.
func (c *conn) disarm() {
	if c.deadline != (vtime.Timer{}) {
		c.deadline.Stop()
		c.deadline = vtime.Timer{}
	}
}

// fireDeadline ends an OnRecv wait that nothing answered: the handler
// hears ErrTimeout, and nothing after it.
func fireDeadline(a any) {
	c := a.(*conn)
	c.deadline = vtime.Timer{}
	c.expired = true
	c.handler.Receive(transport.Message{}, transport.ErrTimeout)
}

func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.disarm()
	// A same-shard peer that closed first has nobody left to tell: its
	// FIN would land on a closed endpoint, where fireFin does nothing, so
	// it is not sent. Dropping an event whose handler changes nothing
	// keeps the seq order of every other event, so no timeline moves.
	// A peer on another shard is not ours to read; its FIN still goes.
	if c.lh.sh == c.rh.sh && c.peer.closed {
		return nil
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
