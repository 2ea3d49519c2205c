package simnet

import (
	"time"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// inbox is a conn's pull adapter, queueing frames until the peer's FIN
// closes the queue. A push wakes the reader in the delivery event and
// PopTimeout arms its own timer: a handler's instants and event order.
type inbox struct {
	*vtime.Queue[transport.Message]
}

func (q inbox) Receive(m transport.Message, err error) {
	if err != nil {
		q.Close()
		return
	}
	q.Push(m)
}

func (c *conn) Recv() (transport.Message, error) { return c.RecvTimeout(-1) }

// RecvTimeout pops the conn's inbox, installing it on a dialed conn's
// first call; on a conn read by callback that panics (OnRecv twice).
func (c *conn) RecvTimeout(d time.Duration) (transport.Message, error) {
	q, ok := c.handler.(inbox)
	if !ok {
		q = inbox{vtime.NewQueue[transport.Message](c.lh.sh.rt)}
		c.OnRecv(q, 0)
	}
	if c.closed || c.peerClosed {
		q.Close()
	}
	m, err := q.PopTimeout(d)
	switch err {
	case nil:
		return m, nil
	case vtime.ErrTimeout:
		return m, transport.ErrTimeout
	}
	return m, transport.ErrClosed
}

// backlog is a listener's pull adapter: the sink that gives each
// inbound conn its inbox and queues the conn for Accept.
type backlog struct{ *vtime.Queue[transport.Conn] }

func (b backlog) take(c *conn) {
	c.OnRecv(inbox{vtime.NewQueue[transport.Message](c.lh.sh.rt)}, 0)
	b.Push(c)
}

// Accept pops the listener's backlog, installing it on the first call;
// on a listener served by OnConn that panics.
func (l *listener) Accept() (transport.Conn, error) {
	b, ok := l.sink.(backlog)
	if !ok {
		b = backlog{vtime.NewQueue[transport.Conn](l.h.sh.rt)}
		l.install(b)
	}
	if l.closed {
		b.Close()
	}
	if c, ok := b.Pop(); ok {
		return c, nil
	}
	return nil, transport.ErrClosed
}
