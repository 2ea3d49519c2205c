package transport_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// callWorld is a client host and a server host, one site each, 5 ms
// apart with jitter on. Every node view logs its closes into one list.
type callWorld struct {
	s      *vtime.Scheduler
	n      *simnet.Net
	closes []string
}

func newCallWorld(t *testing.T) *callWorld {
	t.Helper()
	w := &callWorld{s: vtime.New()}
	t.Cleanup(w.s.Shutdown)
	w.n = simnet.New(w.s, &simnet.StaticTopology{
		HostSite: map[string]string{"c1": "east", "s1": "west"},
		DefLat:   5 * time.Millisecond,
	}, simnet.DefaultConfig(7))
	ln, err := w.node("s1").Listen("s1:100")
	if err != nil {
		t.Fatal(err)
	}
	// The server: "echo" is answered at once, "slow" after three
	// seconds, "hangup" by closing, anything else not at all.
	transport.Serve(ln, func(c transport.Conn, m transport.Message) bool {
		req := string(m.Payload)
		m.Release()
		switch req {
		case "echo":
			c.Send(transport.Message{Payload: []byte("re:echo")})
		case "slow":
			w.s.Schedule(3*time.Second, func() { c.Send(transport.Message{Payload: []byte("re:slow")}) })
		case "hangup":
			return false
		}
		return true
	})
	return w
}

func (w *callWorld) node(host string) transport.Network {
	return nettest.LogCloses(w.n.Node(host), w.s.Elapsed, &w.closes)
}

// call issues one Call from an actor on c1 (a RequestReply, when
// blocking) and drives the world to quiescence. It returns what done
// saw, each line stamped with its virtual time, and how many actors the
// exchange spawned.
func (w *callWorld) call(addr, req string, timeout time.Duration, blocking bool) (dones []string, spawned int) {
	done := func(m transport.Message, err error) {
		dones = append(dones, fmt.Sprintf("%v %q %v", w.s.Elapsed(), m.Payload, err))
		m.Release()
	}
	w.s.Go("caller", func() {
		spawned = w.s.Spawned()
		msg := transport.Message{Payload: []byte(req)}
		if blocking {
			done(transport.RequestReply(w.node("c1"), addr, msg, timeout))
			return
		}
		transport.Call(w.node("c1"), addr, msg, timeout, done)
	})
	w.s.Wait()
	return dones, w.s.Spawned() - spawned
}

// TestCallSemantics pins what done sees, when, and what is closed, for
// every way an exchange can end, and spawns no actor. Each pin is the
// digest of done's lines and the close log, both to the nanosecond,
// recorded when a blocking RequestReply on an actor still produced the
// same timeline. The blocking cases run that RequestReply, through
// simnet's pull adapter, against the pins of their Call twins.
func TestCallSemantics(t *testing.T) {
	cases := []struct {
		name    string
		arrange func(w *callWorld) // faults, before the call
		addr    string
		req     string
		timeout time.Duration
		want    string // suffix of the one done line
		sync    bool   // done runs before Call returns, at time 0
		block   bool   // RequestReply instead of Call
		closes  int    // FINs sent, both ends together
		pin     string // nettest.Digest(dones, closes)
	}{
		{name: "reply", addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"re:echo" <nil>`, closes: 2, pin: "cceb5cece171d037ba559a3d3feb09af376d3773661e05d35de4dfdafa08c991"},
		{name: "refused dial", addr: "s1:999", req: "echo", timeout: time.Second,
			want: `"" transport: unreachable`, pin: "881666f6a51309737b989477738f9a09a04182787e3f8551b561d299098cd14e"},
		{name: "unknown host", addr: "nohost:100", req: "echo", timeout: time.Second,
			want: `"" transport: unreachable`, sync: true, pin: "ffcb639b88b3bf349986a581070624f7d03d51386c39769f6094ea05fd50fb99"},
		{name: "local host down", arrange: func(w *callWorld) { w.n.FailHost("c1") },
			addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"" transport: closed`, sync: true, pin: "d346e1577598271d3f17c3ca35b077ee11fe165437c24f4cdaa0c1821f60ccfe"},
		{name: "timeout, then a late reply", addr: "s1:100", req: "slow", timeout: time.Second,
			want: `"" transport: timeout`, closes: 2, pin: "8ca846b349eb6c518cb49f4f044779ba4c73c5638c6e4495061cd6b00ac84493"},
		{name: "peer closes before replying", addr: "s1:100", req: "hangup", timeout: time.Second,
			want: `"" transport: closed`, closes: 2, pin: "b3e2a899002d9991ffe261a6586957a573ae00ac3cba57566f5f699ad26232d2"},
		{name: "duplicated frames", arrange: func(w *callWorld) { w.n.SetDuplication(1, 2*time.Millisecond) },
			addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"re:echo" <nil>`, closes: 2, pin: "1e945c9f7a0b82c100a7e2d20ad4f605582604f8d54a61a19b476887b40d7520"},
		{name: "dial across a cut", arrange: func(w *callWorld) { w.n.SetCut("east", "west", true) },
			addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"" transport: unreachable`, pin: "b147a3034e7537bb4c80e7660cb85d058c6c7ceef55414fee5954a6c8a2b7211"},
		{name: "caller's host crashes mid-call", arrange: func(w *callWorld) {
			w.s.Schedule(time.Second, func() { w.n.FailHost("c1") })
		}, addr: "s1:100", req: "slow", timeout: 5 * time.Second,
			want: `"" transport: timeout`, closes: 2, pin: "057c2dec58de20ba391112f856fbaf15d29797e2aecebf2e6c761aad4d0444f2"},
		{name: "one-way", addr: "s1:100", req: "echo", timeout: 0,
			want: `"" transport: timeout`, closes: 2, pin: "4fa0f42f18f048bad3309b48c9191718bb1cc53e228515f16eab267118630b09"},
		{name: "reply, blocking", addr: "s1:100", req: "echo", timeout: time.Second, block: true,
			want: `"re:echo" <nil>`, closes: 2, pin: "cceb5cece171d037ba559a3d3feb09af376d3773661e05d35de4dfdafa08c991"},
		{name: "timeout, blocking", addr: "s1:100", req: "slow", timeout: time.Second, block: true,
			want: `"" transport: timeout`, closes: 2, pin: "8ca846b349eb6c518cb49f4f044779ba4c73c5638c6e4495061cd6b00ac84493"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newCallWorld(t)
			if tc.arrange != nil {
				tc.arrange(w)
			}
			dones, spawned := w.call(tc.addr, tc.req, tc.timeout, tc.block)
			closes := w.closes // both ends' FINs
			if len(dones) != 1 || !strings.HasSuffix(dones[0], " "+tc.want) {
				t.Fatalf("done saw %q, want exactly one %q", dones, tc.want)
			}
			if tc.sync != strings.HasPrefix(dones[0], "0s ") {
				t.Errorf("done ran at %q, want synchronous = %v", dones[0], tc.sync)
			}
			if spawned != 0 {
				t.Errorf("the exchange spawned %d actors, want none", spawned)
			}
			if len(closes) != tc.closes {
				t.Errorf("%d closes %q, want %d", len(closes), closes, tc.closes)
			}
			if got := nettest.Digest(dones, closes); got != tc.pin {
				t.Errorf("timeline %q closes %q: digest %s, pinned %s", dones, closes, got, tc.pin)
			}
		})
	}
}

// TestCallTimeoutReleasesLateReply: the reply that lands after the
// deadline closed the conn goes back to the buffer pool and reaches
// nobody — done already ran, once, and the conn has no other consumer.
func TestCallTimeoutReleasesLateReply(t *testing.T) {
	w := newCallWorld(t)
	dones, _ := w.call("s1:100", "slow", time.Second, false)
	if len(dones) != 1 || w.s.Elapsed() < 3*time.Second {
		t.Fatalf("done saw %q by %v, want one timeout and the late reply's delivery event", dones, w.s.Elapsed())
	}
	if w.s.PendingEvents() != 0 {
		t.Fatalf("%d events left: the stopped deadline or the reply is still queued", w.s.PendingEvents())
	}
}

// TestCallAllocs bounds the callback path's garbage: one whole exchange
// — handshake, request, served reply, deadline, the FINs — with no
// actor, queue or mailbox behind it. The plumbing is the exchange
// record, the dial's record and Serve's per-conn Receiver; the rest is
// this world's own: the echo handler, its reply and the close log of
// the server's node view, which spells both of the conn's addresses
// (simnet builds them on demand since the dial stopped doing so for
// every conn). It cost 21 while the dial
// continuation, reply handler and deadline were closures and the dial
// built its handshake, conns and streams one object each.
func TestCallAllocs(t *testing.T) {
	w := newCallWorld(t)
	node := w.n.Node("c1")
	req := transport.Message{Payload: []byte("echo")}
	ok := 0
	done := func(m transport.Message, err error) {
		if err == nil {
			ok++
		}
		m.Release()
	}
	const runs = 200
	avg := testing.AllocsPerRun(runs, func() {
		transport.Call(node, "s1:100", req, time.Second, done)
		w.s.Wait()
	})
	if ok != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d calls answered", ok, runs+1)
	}
	if avg > 12 {
		t.Fatalf("%.1f allocs per call, want at most 12", avg)
	}
	if got := w.s.Spawned(); got != 0 {
		t.Fatalf("%d actors spawned, want none", got)
	}
	t.Logf("%.1f allocs per call", avg)
}

// tcpServer serves loopback TCP, handing every frame to answer, and
// returns its address.
func tcpServer(t *testing.T, answer func(transport.Conn, transport.Message)) string {
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	transport.Serve(ln, func(c transport.Conn, m transport.Message) bool { answer(c, m); return true })
	return ln.Addr()
}

// TestCallOverTCP: on TCP done runs exactly once per call, with the
// reply or with the dial's error.
func TestCallOverTCP(t *testing.T) {
	addr := tcpServer(t, func(c transport.Conn, m transport.Message) {
		c.Send(transport.Message{Payload: append([]byte("re:"), m.Payload...)})
	})
	dead, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close() // nobody listens there any more

	type outcome struct {
		reply string
		err   error
	}
	results := make(chan outcome, 2) // one send per call, checked below
	for _, addr := range []string{addr, deadAddr} {
		transport.Call(transport.TCP{}, addr, transport.Message{Payload: []byte("x")}, 5*time.Second,
			func(m transport.Message, err error) { results <- outcome{string(m.Payload), err} })
	}
	var ok, refused int
	for i := 0; i < 2; i++ {
		switch r := <-results; {
		case r.err == nil && r.reply == "re:x":
			ok++
		case errors.Is(r.err, transport.ErrUnreachable):
			refused++
		default:
			t.Fatalf("unexpected outcome %+v", r)
		}
	}
	if ok != 1 || refused != 1 {
		t.Fatalf("%d replies and %d refusals, want one each", ok, refused)
	}
}

// watchedNet is TCP handing Call a watchedConn.
type watchedNet struct {
	transport.TCP
	conn    *watchedConn
	lateErr *atomic.Int32
}

func (n *watchedNet) DialFunc(addr string, done transport.Dialed) {
	n.TCP.DialFunc(addr, transport.DialedFunc(func(c transport.Conn, err error) {
		if err == nil {
			n.conn = &watchedConn{Conn: c, lateErr: n.lateErr}
			c = n.conn
		}
		done.Dialed(c, err)
	}))
}

// watchedConn records its local Close and counts the errors its reader
// reports after it: the server never closes first, so each one would be
// the Close's own doing.
type watchedConn struct {
	transport.Conn
	closed  atomic.Bool
	lateErr *atomic.Int32
}

func (c *watchedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *watchedConn) OnRecv(r transport.Receiver, timeout time.Duration) {
	c.Conn.OnRecv(transport.RecvFunc(func(m transport.Message, err error) {
		if err != nil && c.closed.Load() {
			c.lateErr.Add(1)
		}
		r.Receive(m, err)
	}), timeout)
}

// TestCallOverTCPDoneOnce races each reply against its deadline: the
// server answers call i after 8+i%5 ms, the caller gives up at 10 ms,
// so the reply lands in the instant the socket's read deadline
// expires. Whichever wins, done runs once, after
// the conn was closed, and the reader reports nothing the local Close
// caused.
func TestCallOverTCPDoneOnce(t *testing.T) {
	addr := tcpServer(t, func(c transport.Conn, m transport.Message) {
		time.AfterFunc(time.Duration(8+int(m.Payload[0])%5)*time.Millisecond, func() {
			c.Send(transport.Message{Payload: []byte("re")})
		})
	})
	const calls = 200
	var dones [calls]atomic.Int32
	var lateErr, unclosed, replies atomic.Int32
	var wg sync.WaitGroup
	wg.Add(calls)
	for i := 0; i < calls; i++ {
		n := &watchedNet{lateErr: &lateErr}
		transport.Call(n, addr, transport.Message{Payload: []byte{byte(i)}}, 10*time.Millisecond,
			func(m transport.Message, err error) {
				if dones[i].Add(1) == 1 {
					defer wg.Done()
				}
				if n.conn == nil || !n.conn.closed.Load() {
					unclosed.Add(1)
				}
				if err == nil {
					replies.Add(1)
				} else if err != transport.ErrTimeout {
					t.Errorf("call %d: %v", i, err)
				}
			})
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond) // every late reply has landed
	for i := range dones {
		if got := dones[i].Load(); got != 1 {
			t.Errorf("call %d: done ran %d times", i, got)
		}
	}
	if unclosed.Load() != 0 || lateErr.Load() != 0 {
		t.Errorf("%d dones before their Close, %d errors reported after a local Close", unclosed.Load(), lateErr.Load())
	}
	t.Logf("%d replies, %d timeouts", replies.Load(), calls-replies.Load())
}
