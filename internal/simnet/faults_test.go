package simnet

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// faultWorld is one engine under the differential fault script: how to
// find a host's scheduler, advance the world, and apply a world-scoped
// mutation at an absolute virtual time (a plain event sequentially, a
// domain-global event — every shard parked at a barrier — when sharded).
type faultWorld struct {
	n      *Net
	rt     func(host string) *vtime.Scheduler
	runFor func(d time.Duration)
	at     func(t time.Duration, fn func())
}

var (
	faultHosts = []string{"a1", "a2", "a3", "a4", "b1", "b2"}
	faultSites = []string{"east", "east", "east", "east", "west", "west"}
)

func faultTopo() *StaticTopology {
	hs := make(map[string]string, len(faultHosts))
	for i, h := range faultHosts {
		hs[h] = faultSites[i]
	}
	return &StaticTopology{HostSite: hs, DefLat: 5 * time.Millisecond}
}

func sequentialFaultWorld(t *testing.T, seed int64) faultWorld {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	n := New(s, faultTopo(), DefaultConfig(seed))
	for _, h := range faultHosts {
		n.host(h) // lazy registration in rank order, as NewSharded freezes it
	}
	return faultWorld{
		n:      n,
		rt:     func(string) *vtime.Scheduler { return s },
		runFor: func(d time.Duration) { s.RunFor(d) },
		at:     func(at time.Duration, fn func()) { s.Schedule(at-s.Elapsed(), fn) },
	}
}

func shardedFaultWorld(t *testing.T, seed int64) faultWorld {
	topo := faultTopo()
	dom := vtime.NewDomain(2, topo.DefLat)
	t.Cleanup(dom.Shutdown)
	siteShard := map[string]int{"east": 0, "west": 1}
	n := NewSharded(dom, topo, DefaultConfig(seed), ShardConfig{
		SiteShard: siteShard, Hosts: faultHosts, Sites: faultSites, Check: true,
	})
	return faultWorld{
		n:      n,
		rt:     func(host string) *vtime.Scheduler { return dom.Shard(siteShard[topo.HostSite[host]]) },
		runFor: func(d time.Duration) { dom.RunFor(d) },
		at:     dom.ScheduleGlobal,
	}
}

// runFaultScript plays one scripted conversation per host pair with the
// whole fault table armed and returns every endpoint's (elapsed, payload
// | error) log. The script is the middleware's shape: one request/reply
// exchange per freshly dialed conn, a reply only to a conn's first frame
// (so duplicates and pipelined frames draw nothing on the reverse
// direction), no frame on a conn after a loss — the traffic for which
// the sharded engine promises the sequential engine's exact timeline.
// Server endpoints are served by OnConn + OnRecv handlers when callback
// is set, by an Accept actor and one Recv actor per conn otherwise; the
// logs include every close a server endpoint observes (the FINs).
func runFaultScript(t *testing.T, w faultWorld, callback bool) map[string][]string {
	const (
		period  = 250 * time.Millisecond
		timeout = 150 * time.Millisecond
		quiet   = 240 * time.Millisecond // into a period: every exchange is over
	)
	n := w.n
	n.SetLinkFault(0.2, 1.5)
	n.SetDuplication(0.3, 20*time.Millisecond)
	n.SetGray("b1", 0.2, 2, true)
	n.SetGray("a4", 0.3, 3, true)

	logs := make(map[string]*[]string)
	for _, h := range faultHosts {
		logs[h] = new([]string)
	}
	logf := func(host, format string, args ...any) {
		l := logs[host]
		*l = append(*l, fmt.Sprintf("%v ", w.rt(host).Elapsed())+fmt.Sprintf(format, args...))
	}

	// handle returns one server endpoint's frame logic: it reports false
	// when the endpoint is to be closed.
	handle := func(host string, c transport.Conn) func(transport.Message, error) bool {
		first := true
		return func(m transport.Message, err error) bool {
			if err != nil {
				logf(host, "recv %v", err)
				return false
			}
			p := string(m.Payload)
			m.Release()
			logf(host, "got %s", p)
			reply := first && !strings.HasPrefix(p, "oneway")
			first = false
			if !reply {
				return true
			}
			c.Send(transport.Message{Payload: []byte("re:" + p)})
			return !strings.HasPrefix(p, "bye") // close with the reply in flight
		}
	}
	serve := func(host string) {
		rt := w.rt(host)
		rt.Go(host+".srv", func() {
			l, err := n.Node(host).Listen(host + ":700")
			if err != nil {
				t.Errorf("%s listen: %v", host, err)
				return
			}
			if callback {
				l.(transport.CallbackListener).OnConn(func(c transport.Conn) {
					h := handle(host, c)
					c.(transport.CallbackConn).OnRecv(func(m transport.Message, err error) {
						if !h(m, err) {
							c.Close()
						}
					})
				})
				return
			}
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				rt.Go(host+".conn", func() {
					defer c.Close()
					for h := handle(host, c); h(c.Recv()); {
					}
				})
			}
		})
	}

	steps := []string{
		"hold", "ping", "refused", "oneway", "bye", "ping", "ping", "ping",
		"ping", "lost", "ping", // across the cut (east↔west pairs only)
		"held", "ping", "oneway", "ping", "ping",
	}
	const cutOn, cutOff = 8, 11 // step indices the cut spans

	client := func(host, target string, offset time.Duration) {
		rt := w.rt(host)
		node := n.Node(host)
		// exchange sends one request on c and logs the reply, timeout or
		// close that answers it.
		exchange := func(c transport.Conn, req string) {
			c.Send(transport.Message{Payload: []byte(req)})
			m, err := c.RecvTimeout(timeout)
			if err != nil {
				logf(host, "%s: %v", req, err)
				return
			}
			logf(host, "%s: %s", req, m.Payload)
			m.Release()
		}
		rt.Go(host+".cli", func() {
			var held transport.Conn
			for k, step := range steps {
				rt.Sleep(time.Duration(k+1)*period + offset - rt.Elapsed())
				req := fmt.Sprintf("%s %d", step, k)
				switch step {
				case "lost": // on the conn dialed before the cut
					exchange(held, req)
					continue
				case "held":
					exchange(held, req)
					held.Close()
					continue
				}
				port := ":700"
				if step == "refused" {
					port = ":999"
				}
				c, err := node.Dial(target + port)
				logf(host, "dial %d: %v", k, err)
				if err != nil {
					continue
				}
				switch step {
				case "hold":
					held = c
					continue
				case "oneway":
					for i := 0; i < 3; i++ {
						c.Send(transport.Message{Payload: []byte(fmt.Sprintf("%s.%d", req, i)), Virtual: 100_000})
					}
					// close with frames in flight
				case "bye":
					exchange(c, req)
					_, err := c.RecvTimeout(timeout)
					logf(host, "after bye: %v", err)
				default:
					exchange(c, req)
				}
				c.Close()
			}
		})
	}

	serve("b1")
	serve("a2")
	serve("a4")
	client("a1", "b1", 0)                   // shard 0 → shard 1, gray server
	client("b2", "a2", 30*time.Millisecond) // shard 1 → shard 0
	client("a3", "a4", 60*time.Millisecond) // same site, gray server: never crosses

	// Cut on while the world is idle between two runs; cut off from a
	// scheduled world-scoped event (a barrier, when sharded).
	w.runFor(cutOn*period + quiet)
	n.SetCut("east", "west", true)
	w.at(cutOff*period+quiet, func() { n.SetCut("east", "west", false) })
	w.runFor(time.Duration(len(steps)+2) * period)

	out := make(map[string][]string, len(logs))
	for h, l := range logs {
		out[h] = *l
	}
	return out
}

// TestFaultScriptShardedMatchesSequential is the differential test of
// the one frame path and of receive by callback: the same conversation
// — data both ways, a refused dial, dials and a send across an active
// cut, closes with frames in flight, under loss, slowdown, gray hosts
// and duplication — must leave identical per-endpoint logs whether every
// frame lands inline (New) or cross-shard frames land at barriers
// (2-shard NewSharded), and whether server endpoints pull their frames
// from Recv actors or have them pushed into OnRecv handlers.
func TestFaultScriptShardedMatchesSequential(t *testing.T) {
	var all []string
	for _, seed := range []int64{1, 7, 42} {
		seq := runFaultScript(t, sequentialFaultWorld(t, seed), false)
		for name, got := range map[string]map[string][]string{
			"sharded":           runFaultScript(t, shardedFaultWorld(t, seed), false),
			"callback":          runFaultScript(t, sequentialFaultWorld(t, seed), true),
			"sharded, callback": runFaultScript(t, shardedFaultWorld(t, seed), true),
		} {
			for _, h := range faultHosts {
				if !slices.Equal(seq[h], got[h]) {
					t.Errorf("seed %d: endpoint %s diverged\nsequential:\n  %s\n%s:\n  %s",
						seed, h, strings.Join(seq[h], "\n  "), name, strings.Join(got[h], "\n  "))
				}
			}
		}
		for _, h := range faultHosts {
			if len(seq[h]) == 0 {
				t.Errorf("seed %d: endpoint %s logged nothing", seed, h)
			}
			all = append(all, seq[h]...)
		}
	}
	// The script must actually have hit what it is named for.
	joined := strings.Join(all, "\n")
	for _, want := range []string{
		": re:ping", ": re:held", ": re:bye", // data both ways
		"timeout", // a lost request or reply
		"dial 2: " + transport.ErrUnreachable.Error(), // refused
		"dial 8: " + transport.ErrUnreachable.Error(), // across the cut
		"lost 9: " + transport.ErrTimeout.Error(),     // swallowed by the cut
		"after bye: " + transport.ErrClosed.Error(),
		" recv " + transport.ErrClosed.Error(), // a FIN reaching a server endpoint
		"got oneway 3.",                        // frames that were in flight at the close
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("no endpoint log contains %q", want)
		}
	}
	dups := 0
	seen := make(map[string]bool)
	for _, line := range all {
		if _, what, ok := strings.Cut(line, " got "); ok {
			if seen[what] {
				dups++
			}
			seen[what] = true
		}
	}
	if dups == 0 {
		t.Error("no duplicated frame was ever delivered")
	}
}

// oneWayArrivals dials a1→b1 once per frame, sends that one frame and
// returns the server-side arrival time of every delivered copy, keyed by
// payload in arrival order. arm installs the fault state under test.
func oneWayArrivals(t *testing.T, frames int, arm func(n *Net)) map[string][]time.Duration {
	s, n := testNet(t, DefaultConfig(3))
	arm(n)
	got := make(map[string][]time.Duration)
	s.Go("server", func() {
		l, _ := n.Node("b1").Listen("b1:100")
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.Go("conn", func() {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					got[string(m.Payload)] = append(got[string(m.Payload)], s.Elapsed())
				}
			})
		}
	})
	s.Go("client", func() {
		for i := 0; i < frames; i++ {
			s.Sleep(time.Millisecond)
			c, err := n.Node("a1").Dial("b1:100")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Send(transport.Message{Payload: []byte(fmt.Sprint("f", i))})
			s.Sleep(200 * time.Millisecond) // outlast any duplicate
			c.Close()
		}
	})
	s.Wait()
	return got
}

// TestDuplicationDrawsLast pins the fixed per-frame draw order (jitter,
// drop, duplicate, duplicate-delay): the duplication draws come last, so
// arming SetDuplication changes neither which frames are lost nor when
// any original arrives — it only adds later copies.
func TestDuplicationDrawsLast(t *testing.T) {
	const frames = 60
	lossy := func(n *Net) { n.SetLinkFault(0.3, 2) }
	plain := oneWayArrivals(t, frames, lossy)
	duped := oneWayArrivals(t, frames, func(n *Net) {
		lossy(n)
		n.SetDuplication(0.4, 50*time.Millisecond)
	})
	if len(plain) == 0 || len(plain) == frames {
		t.Fatalf("%d of %d frames delivered: loss did not bite", len(plain), frames)
	}
	if len(duped) != len(plain) {
		t.Fatalf("arming duplication changed the delivered set: %d vs %d frames", len(duped), len(plain))
	}
	copies := 0
	for p, at := range plain {
		d := duped[p]
		if len(at) != 1 || len(d) == 0 || d[0] != at[0] {
			t.Errorf("frame %s: original arrived at %v, with duplication armed at %v", p, at, d)
		}
		copies += len(d) - 1
	}
	if copies == 0 {
		t.Fatal("duplication never fired")
	}
}

// TestDroppedFramePaysFullFare pins determinism rule 2 on one shard: a
// dropped frame still advances the NIC and pipe frontiers and the FIFO
// clamp, so the frame sent right behind it arrives exactly when it would
// have had the first one been delivered.
func TestDroppedFramePaysFullFare(t *testing.T) {
	// arrivals sends a big frame A then a small frame B back to back on
	// one conn, with a1 gray (slowed by slow, dropping with probability
	// drop) for A only, and returns the payloads and arrival times the
	// server saw.
	arrivals := func(drop, slow float64) (sent time.Duration, what []string, when []time.Duration) {
		s, n := testNet(t, zeroJitter())
		var client transport.Conn
		s.Go("server", func() {
			l, _ := n.Node("b1").Listen("b1:100")
			c, _ := l.Accept()
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				what = append(what, string(m.Payload))
				when = append(when, s.Elapsed())
			}
		})
		s.Go("client", func() {
			s.Sleep(time.Millisecond)
			client, _ = n.Node("a1").Dial("b1:100")
		})
		s.Wait()
		if client == nil {
			t.Fatal("dial failed")
		}
		// The scheduler is idle: fault state may change between the sends.
		sent = s.Elapsed()
		n.SetGray("a1", drop, slow, true)
		client.Send(transport.Message{Payload: []byte("A"), Virtual: 1_000_000}) // 8 ms on the NIC
		n.SetGray("a1", 0, 1, false)
		client.Send(transport.Message{Payload: []byte("B")})
		s.Wait()
		return sent, what, when
	}
	for _, tc := range []struct {
		name string
		slow float64
	}{
		{"NIC and pipe frontiers", 1}, // B queues behind A's serialization
		{"FIFO clamp", 10},            // B's own arrival precedes A's: clamped behind it
	} {
		sent, what, when := arrivals(0, tc.slow)
		if len(what) != 2 || what[0] != "A" || what[1] != "B" {
			t.Fatalf("%s: undropped run delivered %v", tc.name, what)
		}
		a, b := when[0], when[1]
		if tc.slow > 1 && b != a+time.Nanosecond {
			t.Fatalf("%s: B at %v not clamped right behind A at %v", tc.name, b, a)
		}
		if b < a || b-a > time.Millisecond || b < sent+13*time.Millisecond { // 8 ms behind A on the NIC + 5 ms one way
			t.Fatalf("%s: B at %v does not queue behind A at %v", tc.name, b, a)
		}
		_, what, when = arrivals(1, tc.slow)
		if len(what) != 1 || what[0] != "B" {
			t.Fatalf("%s: dropped run delivered %v, want only B", tc.name, what)
		}
		if when[0] != b {
			t.Fatalf("%s: B arrives at %v behind a dropped A, %v behind a delivered one", tc.name, when[0], b)
		}
	}
}
