// Package nettest holds transport test doubles shared by the packages
// that serve connections.
package nettest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/transport"
)

// LogCloses wraps a simulated network so that every local Close of a
// conn — dialed, or accepted through OnConn; each one a FIN on the wire
// — appends "<elapsed> <local>→<remote>" to log.
func LogCloses(n transport.Network, elapsed func() time.Duration, log *[]string) transport.Network {
	return logNet{n, func(c transport.Conn) {
		*log = append(*log, fmt.Sprintf("%v %s→%s", elapsed(), c.LocalAddr(), c.RemoteAddr()))
	}}
}

type logNet struct {
	transport.Network
	onClose func(transport.Conn)
}

func (n logNet) wrap(c transport.Conn) transport.Conn {
	return &logConn{Conn: c, onClose: n.onClose}
}

func (n logNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return logListener{l, n}, nil
}

func (n logNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

func (n logNet) DialFunc(addr string, done transport.Dialed) {
	n.Network.DialFunc(addr, transport.DialedFunc(func(c transport.Conn, err error) {
		if err == nil {
			c = n.wrap(c)
		}
		done.Dialed(c, err)
	}))
}

type logListener struct {
	transport.Listener
	n logNet
}

func (l logListener) OnConn(h func(transport.Conn)) {
	l.Listener.OnConn(func(c transport.Conn) { h(l.n.wrap(c)) })
}

type logConn struct {
	transport.Conn
	onClose func(transport.Conn)
	closed  bool
}

func (c *logConn) Close() error {
	if !c.closed { // a repeated Close sends nothing
		c.closed = true
		c.onClose(c)
	}
	return c.Conn.Close()
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

// Digest is the SHA-256, in hex, of logs line by line: the pin of a
// timeline — a fingerprint, a close log — too long to spell out in a
// test.
func Digest(logs ...[]string) string {
	h := sha256.New()
	for _, log := range logs {
		for _, line := range log {
			fmt.Fprintln(h, line)
		}
		fmt.Fprintln(h, "--")
	}
	return hex.EncodeToString(h.Sum(nil))
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
