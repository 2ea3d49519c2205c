package transport

import (
	"errors"
	"time"
)

// Common transport errors.
var (
	// ErrClosed is returned by operations on a closed conn or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout is returned by RecvTimeout when the deadline passes.
	ErrTimeout = errors.New("transport: timeout")
	// ErrUnreachable is returned by Dial when the address has no listener.
	ErrUnreachable = errors.New("transport: unreachable")
)

// Message is one framed datagram. Payload carries real bytes; Virtual, if
// non-zero, declares an additional modelled size in bytes used by the
// simulator to compute transfer time without allocating the data. A
// Class-B NAS IS exchange is sent as a small header with Virtual set to
// the would-be buffer size.
type Message struct {
	Payload []byte
	Virtual int64

	// pool, when set by the delivering transport, is where Release
	// returns the payload buffer. Receivers that are done with Payload
	// (typically right after decoding the frame) call Release so the
	// transport can recycle the copy; everyone else may simply drop the
	// message and let the GC take it.
	pool *BufferPool
}

// Size returns the modelled size of the message on the wire.
func (m Message) Size() int64 { return int64(len(m.Payload)) + m.Virtual }

// Pooled returns a message whose payload was drawn from pool, for
// transports that recycle delivery buffers.
func Pooled(payload []byte, virtual int64, pool *BufferPool) Message {
	return Message{Payload: payload, Virtual: virtual, pool: pool}
}

// Release hands the payload buffer back to the transport that delivered
// the message. It must be the receiver's last use of Payload (and of any
// decoded view aliasing it). Safe to call on unpooled messages: it is a
// no-op when no pool is attached.
func (m Message) Release() {
	if m.pool != nil && m.Payload != nil {
		m.pool.Put(m.Payload)
	}
}

// Conn is a reliable, ordered, message-oriented connection, read by
// callback (OnRecv) or, when it came from Accept or the blocking Dial,
// by Recv and RecvTimeout, never both. Send may be used concurrently
// with either; concurrent Sends (or Recvs) are serialized.
type Conn interface {
	// Send transmits one message. It keeps no reference to m.Payload
	// once it returns — simnet copies the bytes when the frame departs,
	// TCP has written them — so the caller may reuse the buffer at once.
	Send(m Message) error
	// OnRecv installs the frame handler, at most once. The handler runs
	// in delivery context, one call at a time in arrival order, and must
	// not block. It sees the peer's close once, as an error after all
	// in-flight data, and nothing after a local Close. On simnet what
	// landed before it is not replayed, so Serve and Call install it in
	// the event that accepts the conn or sends the request.
	//
	// A positive timeout arms a deadline on the first arrival: when
	// neither a frame nor the peer's close has reached r within it, r
	// gets ErrTimeout instead (RecvTimeout by callback). An error,
	// ErrTimeout included, is the last thing r hears.
	OnRecv(r Receiver, timeout time.Duration)
	// Recv blocks until a message arrives or the conn closes.
	Recv() (Message, error)
	// RecvTimeout is Recv with a deadline; d < 0 means block forever.
	// It returns ErrTimeout when the deadline expires first.
	RecvTimeout(d time.Duration) (Message, error)
	// Close tears the connection down: the peer hears ErrClosed after
	// the in-flight frames, and a later Recv returns ErrClosed.
	Close() error
	// LocalAddr and RemoteAddr return the endpoint addresses.
	LocalAddr() string
	RemoteAddr() string
}

// Receiver consumes a conn's frames (Conn.OnRecv). An interface, not a
// func, so that a record serving several roles — Call's exchange is its
// own dial continuation and reply handler — is one allocation.
type Receiver interface {
	Receive(m Message, err error)
}

// RecvFunc adapts a function to Receiver.
type RecvFunc func(Message, error)

// Receive calls f(m, err).
func (f RecvFunc) Receive(m Message, err error) { f(m, err) }

// Dialed receives the outcome of a Network.DialFunc, exactly once.
type Dialed interface {
	Dialed(c Conn, err error)
}

// DialedFunc adapts a function to Dialed.
type DialedFunc func(Conn, error)

// Dialed calls f(c, err).
func (f DialedFunc) Dialed(c Conn, err error) { f(c, err) }

// Listener accepts inbound connections on one address, by callback
// (OnConn) or by the blocking Accept, never both.
type Listener interface {
	// OnConn installs the inbound-connection handler, at most once and
	// before the first connection arrives (simnet refuses dials until
	// OnConn or Accept). The handler runs in delivery context and must
	// not block; typically it installs the conn's OnRecv handler (Serve).
	OnConn(handler func(Conn))
	// Accept blocks until an inbound connection arrives.
	Accept() (Conn, error)
	// Close stops accepting; a later Accept returns ErrClosed.
	Close() error
	// Addr returns the bound address.
	Addr() string
}

// FrameHandler consumes one inbound frame of served connection c and
// returns false to close the endpoint (protocol violation, failed reply).
type FrameHandler func(c Conn, m Message) bool

// Serve answers every connection ln accepts with h, which runs in
// delivery context (see the package doc) once per inbound frame. An
// endpoint is closed when its peer closes or h returns false, only.
func Serve(ln Listener, h FrameHandler) {
	ln.OnConn(func(c Conn) { c.OnRecv(&served{c: c, h: h}, 0) })
}

// served is one conn under Serve: its Receiver, the one allocation
// Serve makes per conn.
type served struct {
	c Conn
	h FrameHandler
}

func (s *served) Receive(m Message, err error) {
	if err != nil || !s.h(s.c, m) {
		s.c.Close()
	}
}

// Network is the factory for listeners and outbound connections.
// Addresses are strings; the TCP implementation uses "host:port" resolved
// by the OS, the simulator uses "hostID:port" resolved by the topology.
type Network interface {
	Listen(addr string) (Listener, error)
	// DialFunc starts a dial and returns at once. done runs exactly
	// once and must not block: in delivery context when the handshake
	// ends, or before DialFunc returns when the dial fails without
	// touching the wire.
	DialFunc(addr string, done Dialed)
	// Dial is the blocking form of DialFunc.
	Dial(addr string) (Conn, error)
}

// Call is the request/reply exchange: dial addr, send req, take one
// reply or give up after timeout, close the conn, then hand done —
// exactly once — the reply or the error. A timeout of 0 waits
// for nothing (send, close, ErrTimeout): the one-way form.
//
// Nothing parks: done runs in delivery context (see the package doc),
// inside Call itself when the dial fails on the spot, and after the
// conn is closed. The exchange is one allocation: the record is the
// dial's continuation and the conn's Receiver, and the deadline is the
// conn's own (Conn.OnRecv). req.Payload is sent once the dial ends, so
// it must stay untouched until then.
func Call(n Network, addr string, req Message, timeout time.Duration, done func(Message, error)) {
	n.DialFunc(addr, &exchange{req: req, timeout: timeout, done: done})
}

// exchange is one Call. The reply, the peer's close and the deadline
// all reach it through the conn's Receiver, one at a time and the first
// of them last, so it needs no guard of its own on either network.
type exchange struct {
	c       Conn
	req     Message
	timeout time.Duration
	done    func(Message, error)
}

func (x *exchange) Dialed(c Conn, err error) {
	if err != nil {
		x.done(Message{}, err)
		return
	}
	x.c = c
	if err = c.Send(x.req); err == nil && x.timeout == 0 {
		err = ErrTimeout
	}
	x.req = Message{}
	if err != nil {
		x.Receive(Message{}, err)
		return
	}
	// The deadline is armed once the request has left — where
	// RecvTimeout armed its own — and disarmed by whatever comes
	// first: the reply or the peer's close.
	c.OnRecv(x, x.timeout)
}

func (x *exchange) Receive(m Message, err error) {
	x.c.Close() // the FIN leaves before done runs, like RequestReply's deferred Close
	x.done(m, err)
}
