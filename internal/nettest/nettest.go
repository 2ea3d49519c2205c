// Package nettest holds transport test doubles shared by the packages
// that serve connections.
package nettest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/transport"
)

// PullOnly wraps a network so that it, its listeners and its conns
// expose only the base interfaces: transport.Serve then takes its
// fallback path (an accept loop and one Recv loop per conn) and
// transport.Call its own (RequestReply on a spawned actor) on a
// transport that could do callbacks. Differential tests run one script
// on a network and on its PullOnly twin; on simnet the two must produce
// the same timeline.
func PullOnly(n transport.Network) transport.Network { return pullNet{n} }

type pullNet struct{ transport.Network }

func (p pullNet) Listen(addr string) (transport.Listener, error) {
	l, err := p.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return pullListener{l}, nil
}

func (p pullNet) Dial(addr string) (transport.Conn, error) {
	c, err := p.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return pullConn{c}, nil
}

type pullListener struct{ transport.Listener }

func (l pullListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return pullConn{c}, nil
}

type pullConn struct{ transport.Conn }

// LogCloses wraps a callback-capable network (simnet) so that every
// local Close of a conn — dialed or accepted, each one a FIN on the
// wire — appends "<elapsed> <local>→<remote>" to log. The capabilities
// stay visible; compose as PullOnly(LogCloses(…)) to log the fallback
// path.
func LogCloses(n transport.Network, elapsed func() time.Duration, log *[]string) transport.Network {
	return logNet{n.(transport.CallbackNetwork), func(c transport.Conn) {
		*log = append(*log, fmt.Sprintf("%v %s→%s", elapsed(), c.LocalAddr(), c.RemoteAddr()))
	}}
}

type logNet struct {
	transport.CallbackNetwork
	onClose func(transport.Conn)
}

func (n logNet) wrap(c transport.Conn) transport.Conn {
	return &logConn{CallbackConn: c.(transport.CallbackConn), onClose: n.onClose}
}

func (n logNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.CallbackNetwork.Listen(addr)
	if err != nil {
		return nil, err
	}
	return logListener{l.(transport.CallbackListener), n}, nil
}

func (n logNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.CallbackNetwork.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

func (n logNet) DialFunc(addr string, done func(transport.Conn, error)) {
	n.CallbackNetwork.DialFunc(addr, func(c transport.Conn, err error) {
		if err == nil {
			c = n.wrap(c)
		}
		done(c, err)
	})
}

type logListener struct {
	transport.CallbackListener
	n logNet
}

func (l logListener) Accept() (transport.Conn, error) {
	c, err := l.CallbackListener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(c), nil
}

func (l logListener) OnConn(h func(transport.Conn)) {
	l.CallbackListener.OnConn(func(c transport.Conn) { h(l.n.wrap(c)) })
}

type logConn struct {
	transport.CallbackConn
	onClose func(transport.Conn)
	closed  bool
}

func (c *logConn) Close() error {
	if !c.closed { // a repeated Close sends nothing
		c.closed = true
		c.onClose(c)
	}
	return c.CallbackConn.Close()
}

// Probe is the scripted client of the daemons' hygiene tests: it holds
// one conn to the daemon under test and logs, with its virtual
// timestamp, whatever answers each frame — a reply, a timeout, or the
// daemon's close. It must run on an actor.
type Probe struct {
	Net     transport.Network    // the client host's own (unwrapped) view
	Elapsed func() time.Duration // the client's clock
	Name    func([]byte) string  // renders a reply frame for the log
	Log     []string

	c transport.Conn
}

// Dial replaces the held conn with a fresh one to addr.
func (p *Probe) Dial(addr string) {
	c, err := p.Net.Dial(addr)
	p.Log = append(p.Log, fmt.Sprintf("%v dial: %v", p.Elapsed(), err))
	p.c = c
}

// Ask sends frame on the held conn and logs what comes back within a
// second.
func (p *Probe) Ask(label string, frame []byte) {
	p.c.Send(transport.Message{Payload: frame})
	m, err := p.c.RecvTimeout(time.Second)
	answer := fmt.Sprint(err)
	if err == nil {
		answer = p.Name(m.Payload)
	}
	p.Log = append(p.Log, fmt.Sprintf("%v %s: %s", p.Elapsed(), label, answer))
}

// ExpectSuffixes fails t unless log has one line per want, each ending
// in " "+want[i] — the outcome of a step, whatever its timestamp.
func ExpectSuffixes(t testing.TB, log []string, want ...string) {
	t.Helper()
	if len(log) != len(want) {
		t.Fatalf("log %q, want %q", log, want)
	}
	for i, w := range want {
		if !strings.HasSuffix(log[i], " "+w) {
			t.Errorf("step %d: %q, want %q", i, log[i], w)
		}
	}
}
