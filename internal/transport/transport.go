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

// Conn is a reliable, ordered, message-oriented connection.
// Send and Recv may be used concurrently with each other; concurrent
// Sends (or concurrent Recvs) are serialized by the implementation.
type Conn interface {
	// Send transmits one message. It keeps no reference to m.Payload
	// once it returns — simnet copies the bytes when the frame departs,
	// TCP has written them — so the caller may reuse the buffer at once.
	Send(m Message) error
	// Recv blocks until a message arrives or the conn closes.
	Recv() (Message, error)
	// RecvTimeout is Recv with a deadline; d < 0 means block forever.
	// It returns ErrTimeout when the deadline expires first.
	RecvTimeout(d time.Duration) (Message, error)
	// Close tears the connection down. Pending receivers unblock with
	// ErrClosed once the in-flight queue drains.
	Close() error
	// LocalAddr and RemoteAddr return the endpoint addresses.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections on one address.
type Listener interface {
	// Accept blocks until an inbound connection arrives.
	Accept() (Conn, error)
	// Close stops accepting; blocked Accepts return ErrClosed.
	Close() error
	// Addr returns the bound address.
	Addr() string
}

// CallbackListener is implemented by listeners that can hand inbound
// connections to a callback instead of an Accept loop. The handler runs
// in the transport's delivery context and must not block — typically it
// installs a CallbackConn handler (see Serve). Daemons that install a
// handler never call Accept, so an idle daemon needs no goroutine parked
// per listener; transports without the capability fall back to Accept.
type CallbackListener interface {
	Listener
	// OnConn installs the inbound-connection handler. Must be called
	// before the listener can receive its first connection, and at most
	// once.
	OnConn(handler func(Conn))
}

// CallbackConn is the receive-side twin of CallbackListener: a conn
// that hands inbound frames to a callback instead of a Recv loop, so a
// served connection costs no goroutine. The handler runs in the
// transport's delivery context — one call at a time, in arrival order —
// and must not block. It sees the peer's close exactly once, as an
// error after all in-flight data, and nothing after a local Close.
type CallbackConn interface {
	Conn
	// OnRecv installs the frame handler, first draining anything that
	// already arrived, in order. At most once, and instead of Recv.
	OnRecv(handler func(Message, error))
}

// FrameHandler consumes one inbound frame of a served connection and
// returns false to close the endpoint (protocol violation, failed reply).
type FrameHandler func(Message) bool

// Spawner starts fn as an independent thread of control; vtime.Runtime
// implements it. The name is used in diagnostics only.
type Spawner interface {
	Go(name string, fn func())
}

// Serve answers every connection ln accepts: open is called once per
// inbound conn and returns the handler for its frames. On a transport
// with both callback capabilities (simnet) that is OnConn + OnRecv and
// no goroutine anywhere — handlers run in delivery context and must not
// block. Everything else (TCP) gets an accept loop and one Recv loop per
// conn, spawned through sp under the given name. Either way an endpoint
// is closed when its peer closes or its handler returns false, only.
func Serve(sp Spawner, ln Listener, name string, open func(Conn) FrameHandler) {
	if cl, ok := ln.(CallbackListener); ok {
		cl.OnConn(func(c Conn) { serveConn(sp, c, name, open(c)) })
		return
	}
	sp.Go(name+".accept", func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			serveConn(sp, c, name, open(c))
		}
	})
}

func serveConn(sp Spawner, c Conn, name string, h FrameHandler) {
	if cc, ok := c.(CallbackConn); ok {
		cc.OnRecv(func(m Message, err error) {
			if err != nil || !h(m) {
				c.Close()
			}
		})
		return
	}
	sp.Go(name, func() {
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil || !h(m) {
				return
			}
		}
	})
}

// Network is the factory for listeners and outbound connections.
// Addresses are strings; the TCP implementation uses "host:port" resolved
// by the OS, the simulator uses "hostID:port" resolved by the topology.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// RequestReply dials addr, sends req, waits up to timeout for a single
// reply and closes the connection: the blocking form of Call, for
// scripts that are sequential anyway (registration, refresh, tools).
func RequestReply(n Network, addr string, req Message, timeout time.Duration) (Message, error) {
	c, err := n.Dial(addr)
	if err != nil {
		return Message{}, err
	}
	defer c.Close()
	if err := c.Send(req); err != nil {
		return Message{}, err
	}
	return c.RecvTimeout(timeout)
}

// CallbackNetwork is the client-side capability, the mirror of
// CallbackListener: a network that completes a dial by callback and
// keeps deadlines in its delivery context, so a whole request/reply
// exchange (Call) costs no goroutine. The conns it hands to done are
// CallbackConns.
type CallbackNetwork interface {
	Network
	// DialFunc starts a dial and returns at once. done runs exactly
	// once and must not block: in delivery context when the handshake
	// ends, or before DialFunc returns when the dial fails without
	// touching the wire.
	DialFunc(addr string, done func(Conn, error))
	// After runs fn in delivery context d from now, unless stop is
	// called first.
	After(d time.Duration, fn func()) (stop func())
}

// Call is RequestReply by callback: dial addr, send req, take one reply
// or give up after timeout, close the conn, then hand done — exactly
// once — what RequestReply would have returned. A timeout of 0 waits
// for nothing (send, close, ErrTimeout): the one-way form.
//
// On a CallbackNetwork (simnet) the exchange is a chain of delivery
// events and nothing parks: done runs in delivery context — inside Call
// itself when the dial fails on the spot — and must not block (no
// Sleep, Dial, RequestReply or empty Pop; pushing to a mailbox or
// starting the next Call is fine). Everywhere else (TCP, a PullOnly
// wrapper) it is RequestReply on a goroutine spawned through sp, and
// done runs there. Either way the conn is closed before done runs.
func Call(sp Spawner, n Network, addr string, req Message, timeout time.Duration, done func(Message, error)) {
	cn, ok := n.(CallbackNetwork)
	if !ok {
		sp.Go("transport.call", func() { done(RequestReply(n, addr, req, timeout)) })
		return
	}
	cn.DialFunc(addr, func(c Conn, err error) {
		if err != nil {
			done(Message{}, err)
			return
		}
		finish := func(m Message, err error) {
			c.Close() // the FIN leaves before done runs, like RequestReply's deferred Close
			done(m, err)
		}
		if err = c.Send(req); err == nil && timeout == 0 {
			err = ErrTimeout
		}
		if err != nil {
			finish(Message{}, err)
			return
		}
		// The deadline is armed once the request has left — where
		// RecvTimeout armed its own — and disarmed by whatever comes
		// first: the reply or the peer's close.
		stop := func() {}
		if timeout > 0 {
			stop = cn.After(timeout, func() { finish(Message{}, ErrTimeout) })
		}
		c.(CallbackConn).OnRecv(func(m Message, err error) {
			stop()
			finish(m, err)
		})
	})
}
