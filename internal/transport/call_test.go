package transport_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/nettest"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// callWorld is a client host and a server host, one site each, 5 ms
// apart with jitter on. Every node view logs its closes into one list;
// with pull set every view is also PullOnly, so Call and Serve both
// take their fallback paths on the same simulated timeline.
type callWorld struct {
	s      *vtime.Scheduler
	n      *simnet.Net
	pull   bool
	closes []string
}

func newCallWorld(t *testing.T, pull bool) *callWorld {
	t.Helper()
	w := &callWorld{s: vtime.New(), pull: pull}
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
	transport.Serve(w.s, ln, "srv", func(c transport.Conn) transport.FrameHandler {
		return func(m transport.Message) bool {
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
		}
	})
	return w
}

func (w *callWorld) node(host string) transport.Network {
	n := nettest.LogCloses(w.n.Node(host), w.s.Elapsed, &w.closes)
	if w.pull {
		n = nettest.PullOnly(n)
	}
	return n
}

// call issues one Call from an actor on c1 and drives the world to
// quiescence. It returns what done saw, each line stamped with its
// virtual time, and how many actors the exchange spawned.
func (w *callWorld) call(addr, req string, timeout time.Duration) (dones []string, spawned int) {
	w.s.Go("caller", func() {
		spawned = w.s.Spawned()
		transport.Call(w.s, w.node("c1"), addr, transport.Message{Payload: []byte(req)}, timeout,
			func(m transport.Message, err error) {
				dones = append(dones, fmt.Sprintf("%v %q %v", w.s.Elapsed(), m.Payload, err))
				m.Release()
			})
	})
	w.s.Wait()
	return dones, w.s.Spawned() - spawned
}

// TestCallSemantics pins what done sees, when, and what is closed, for
// every way an exchange can end — on simnet's callback path and on the
// PullOnly twin, which must agree to the nanosecond. On the callback
// path no actor is spawned.
func TestCallSemantics(t *testing.T) {
	cases := []struct {
		name    string
		arrange func(w *callWorld) // faults, before the call
		addr    string
		req     string
		timeout time.Duration
		want    string // suffix of the one done line
		sync    bool   // done runs before Call returns, at time 0
		closes  int    // FINs sent, both ends together
	}{
		{name: "reply", addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"re:echo" <nil>`, closes: 2},
		{name: "refused dial", addr: "s1:999", req: "echo", timeout: time.Second,
			want: `"" transport: unreachable`},
		{name: "unknown host", addr: "nohost:100", req: "echo", timeout: time.Second,
			want: `"" transport: unreachable`, sync: true},
		{name: "local host down", arrange: func(w *callWorld) { w.n.FailHost("c1") },
			addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"" transport: closed`, sync: true},
		{name: "timeout, then a late reply", addr: "s1:100", req: "slow", timeout: time.Second,
			want: `"" transport: timeout`, closes: 2},
		{name: "peer closes before replying", addr: "s1:100", req: "hangup", timeout: time.Second,
			want: `"" transport: closed`, closes: 2},
		{name: "duplicated frames", arrange: func(w *callWorld) { w.n.SetDuplication(1, 2*time.Millisecond) },
			addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"re:echo" <nil>`, closes: 2},
		{name: "dial across a cut", arrange: func(w *callWorld) { w.n.SetCut("east", "west", true) },
			addr: "s1:100", req: "echo", timeout: time.Second,
			want: `"" transport: unreachable`},
		{name: "caller's host crashes mid-call", arrange: func(w *callWorld) {
			w.s.Schedule(time.Second, func() { w.n.FailHost("c1") })
		}, addr: "s1:100", req: "slow", timeout: 5 * time.Second,
			want: `"" transport: timeout`, closes: 2},
		{name: "one-way", addr: "s1:100", req: "echo", timeout: 0,
			want: `"" transport: timeout`, closes: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(pull bool) (dones, closes []string, spawned int) {
				w := newCallWorld(t, pull)
				if tc.arrange != nil {
					tc.arrange(w)
				}
				dones, spawned = w.call(tc.addr, tc.req, tc.timeout)
				return dones, w.closes, spawned
			}
			dones, closes, spawned := run(false)
			pullDones, pullCloses, pullSpawned := run(true)
			if len(dones) != 1 || !strings.HasSuffix(dones[0], " "+tc.want) {
				t.Fatalf("done saw %q, want exactly one %q", dones, tc.want)
			}
			if tc.sync != strings.HasPrefix(dones[0], "0s ") {
				t.Errorf("done ran at %q, want synchronous = %v", dones[0], tc.sync)
			}
			if spawned != 0 {
				t.Errorf("the callback path spawned %d actors, want none", spawned)
			}
			if pullSpawned == 0 {
				t.Error("the PullOnly twin spawned no actor: it did not take the fallback")
			}
			if len(closes) != tc.closes {
				t.Errorf("%d closes %q, want %d", len(closes), closes, tc.closes)
			}
			if !slices.Equal(dones, pullDones) || !slices.Equal(closes, pullCloses) {
				t.Errorf("timelines diverged\ncallback: %q closes %q\npull:     %q closes %q",
					dones, closes, pullDones, pullCloses)
			}
		})
	}
}

// TestCallTimeoutReleasesLateReply: the reply that lands after the
// deadline closed the conn goes back to the buffer pool and reaches
// nobody — done already ran, once, and the conn has no other consumer.
func TestCallTimeoutReleasesLateReply(t *testing.T) {
	w := newCallWorld(t, false)
	dones, _ := w.call("s1:100", "slow", time.Second)
	if len(dones) != 1 || w.s.Elapsed() < 3*time.Second {
		t.Fatalf("done saw %q by %v, want one timeout and the late reply's delivery event", dones, w.s.Elapsed())
	}
	if w.s.PendingEvents() != 0 {
		t.Fatalf("%d events left: the stopped deadline or the reply is still queued", w.s.PendingEvents())
	}
}

// TestCallAllocs bounds the callback path's garbage: one whole exchange
// — handshake, request, served reply, deadline, both FINs — with no
// actor, queue or mailbox behind it.
func TestCallAllocs(t *testing.T) {
	w := newCallWorld(t, false)
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
		transport.Call(w.s, node, "s1:100", req, time.Second, done)
		w.s.Wait()
	})
	if ok != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d calls answered", ok, runs+1)
	}
	if avg > 24 {
		t.Fatalf("%.1f allocs per call, want at most 24", avg)
	}
	if got := w.s.Spawned(); got != 0 {
		t.Fatalf("%d actors spawned, want none", got)
	}
	t.Logf("%.1f allocs per call", avg)
}

// goSpawner runs Call's fallback on plain goroutines.
type goSpawner struct{}

func (goSpawner) Go(_ string, fn func()) { go fn() }

// TestCallFallbackOverTCP: on a transport without the capability Call
// is RequestReply on a goroutine spawned through sp — done still runs
// exactly once per call, with the reply or with the dial's error.
func TestCallFallbackOverTCP(t *testing.T) {
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	transport.Serve(goSpawner{}, ln, "echo", func(c transport.Conn) transport.FrameHandler {
		return func(m transport.Message) bool {
			return c.Send(transport.Message{Payload: append([]byte("re:"), m.Payload...)}) == nil
		}
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
	for _, addr := range []string{ln.Addr(), deadAddr} {
		transport.Call(goSpawner{}, transport.TCP{}, addr, transport.Message{Payload: []byte("x")}, 5*time.Second,
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
