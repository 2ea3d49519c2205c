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

// callbackPair dials addr from host `from` with the listener in callback
// mode and returns both endpoints once the handshake is over. The server
// endpoint has no frame handler yet.
func callbackPair(t *testing.T, s *vtime.Scheduler, n *Net, from, addr string) (client transport.Conn, server *conn) {
	t.Helper()
	host, _, _ := splitAddr(addr)
	l, err := n.Node(host).Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	l.OnConn(func(c transport.Conn) { server = c.(*conn) })
	s.Go("client", func() {
		var err error
		if client, err = n.Node(from).Dial(addr); err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	s.Wait()
	if client == nil || server == nil {
		t.Fatal("handshake did not complete")
	}
	return client, server
}

// recvLog is an OnRecv handler that records (elapsed, payload | error).
func recvLog(s *vtime.Scheduler, log *[]string) transport.RecvFunc {
	return func(m transport.Message, err error) {
		if err != nil {
			*log = append(*log, fmt.Sprintf("%v %v", s.Elapsed(), err))
			return
		}
		*log = append(*log, fmt.Sprintf("%v %s", s.Elapsed(), m.Payload))
		m.Release()
	}
}

func send(t *testing.T, c transport.Conn, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := c.Send(transport.Message{Payload: []byte(p)}); err != nil {
			t.Fatalf("send %q: %v", p, err)
		}
	}
}

// TestOnRecvDeliversInOrderThenCloseOnce: frames reach the handler in
// the delivery event, in FIFO order at their arrival times; the peer's
// FIN reaches it exactly once, after all in-flight data.
func TestOnRecvDeliversInOrderThenCloseOnce(t *testing.T) {
	s, n := testNet(t, zeroJitter())
	client, server := callbackPair(t, s, n, "a1", "b1:100")
	var log []string
	server.OnRecv(recvLog(s, &log), 0)

	send(t, client, "one", "two", "three")
	client.Close() // the FIN trails three frames still in flight
	s.Wait()

	if len(log) != 4 {
		t.Fatalf("handler saw %q, want three frames and one close", log)
	}
	for i, want := range []string{" one", " two", " three", " " + transport.ErrClosed.Error()} {
		if !strings.HasSuffix(log[i], want) {
			t.Fatalf("call %d is %q, want suffix %q (log %q)", i, log[i], want, log)
		}
	}
	if !server.peerClosed {
		t.Fatal("FIN did not mark the endpoint")
	}
}

// TestFramesBeforeHandlerAreDropped pins the rule for what lands on an
// endpoint that has no handler yet: frames are dropped, not replayed to
// a handler installed later, and a FIN only marks the endpoint, which
// the pull form reports. A blocking-Dial conn gets its inbox at its
// first Recv, so a script that yields between Send and Recv loses the
// reply, and one that does not (RequestReply) keeps it.
func TestFramesBeforeHandlerAreDropped(t *testing.T) {
	s, n := testNet(t, zeroJitter())
	client, server := callbackPair(t, s, n, "a1", "b1:100")
	send(t, client, "one", "two")
	s.Wait()
	var log []string
	server.OnRecv(recvLog(s, &log), 0)
	send(t, client, "three")
	client.Close()
	s.Wait()
	if len(log) != 2 || !strings.HasSuffix(log[0], " three") || !strings.HasSuffix(log[1], transport.ErrClosed.Error()) {
		t.Fatalf("a handler installed after two frames saw %q, want only the third and the close", log)
	}

	// The FIN already in: a handler hears nothing, the pull form the close.
	client, server = callbackPair(t, s, n, "a2", "b2:100")
	send(t, client, "late")
	client.Close()
	s.Wait()
	var err error
	s.Go("reader", func() { _, err = server.Recv() })
	s.Wait()
	if err != transport.ErrClosed {
		t.Fatalf("Recv after the FIN: %v, want ErrClosed", err)
	}

	// Blocking Dial: yield between Send and Recv, or not.
	l, _ := n.Node("b1").Listen("b1:200")
	transport.Serve(l, func(c transport.Conn, m transport.Message) bool {
		c.Send(transport.Message{Payload: []byte("re")})
		return true
	})
	got := map[bool]error{}
	for _, yield := range []bool{false, true} {
		s.Go("script", func() {
			c, _ := n.Node("a1").Dial("b1:200")
			send(t, c, "ask")
			if yield {
				s.Sleep(time.Second)
			}
			_, got[yield] = c.RecvTimeout(time.Second)
			c.Close()
		})
		s.Wait()
	}
	if got[false] != nil || got[true] != transport.ErrTimeout {
		t.Fatalf("reply read at once: %v, after a yield: %v; want nil and ErrTimeout", got[false], got[true])
	}
}

// TestOnRecvNothingAfterCloseOrWhileDown: a frame landing after the
// local Close, or on a host that is down, is dropped before the handler
// is consulted; the peer's FIN on a locally closed endpoint has nobody
// left to tell. A restored host's endpoint hears later frames again.
func TestOnRecvNothingAfterCloseOrWhileDown(t *testing.T) {
	s, n := testNet(t, zeroJitter())
	client, server := callbackPair(t, s, n, "a1", "b1:100")
	var log []string
	server.OnRecv(recvLog(s, &log), 0)

	send(t, client, "in flight at the crash")
	n.FailHost("b1")
	s.Wait()
	if len(log) != 0 {
		t.Fatalf("a down host's handler saw %q", log)
	}
	n.RestoreHost("b1")
	send(t, client, "after the reboot")
	s.Wait()
	if len(log) != 1 || !strings.HasSuffix(log[0], " after the reboot") {
		t.Fatalf("restored endpoint saw %q", log)
	}

	send(t, client, "in flight at the close")
	server.Close()
	client.Close()
	s.Wait()
	if len(log) != 1 {
		t.Fatalf("a locally closed endpoint's handler saw %q", log[1:])
	}
}

// TestBlockingHandlerFailsLoudly: a frame handler runs in delivery
// context, not on an actor, so one that tries to park — Sleep, or Pop on
// an empty queue — panics out of Wait instead of hanging the world.
func TestBlockingHandlerFailsLoudly(t *testing.T) {
	for name, block := range map[string]func(s *vtime.Scheduler){
		"Sleep":     func(s *vtime.Scheduler) { s.Sleep(time.Millisecond) },
		"Queue.Pop": func(s *vtime.Scheduler) { vtime.NewQueue[int](s).Pop() },
	} {
		s, n := testNet(t, zeroJitter())
		client, server := callbackPair(t, s, n, "a1", "b1:100")
		server.OnRecv(transport.RecvFunc(func(transport.Message, error) { block(s) }), 0)
		send(t, client, "x")
		func() {
			defer func() {
				want := "vtime: " + name + " called from a non-actor goroutine"
				if r := fmt.Sprint(recover()); !strings.Contains(r, want) {
					t.Errorf("%s in a handler: Wait panicked with %q, want %q", name, r, want)
				}
			}()
			s.Wait()
			t.Errorf("%s in a handler: Wait returned", name)
		}()
	}
}

// TestGlobalEventCloseLandsAtItsBarrier: a close made by a domain-global
// event (a crash tearing down a host's connections) crosses shards from
// the barrier itself. Its FIN left at the committed horizon, so it lands
// at that barrier — not at the next one, whose horizon is sized from the
// shards' pending events alone and may lie beyond the FIN's arrival
// (the lookahead check is armed; nothing else is pending here).
func TestGlobalEventCloseLandsAtItsBarrier(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	dom, n := shardedNet(t, twoSiteTopo(oneWay), oneWay, true)
	l, err := n.Node("b1").Listen("b1:100")
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	l.OnConn(func(c transport.Conn) {
		c.OnRecv(recvLog(dom.Shard(1), &log), 0)
	})
	var client transport.Conn
	dom.Shard(0).Go("client", func() { client, _ = n.Node("a1").Dial("b1:100") })
	dom.RunFor(time.Second)
	if client == nil {
		t.Fatal("dial failed")
	}
	dom.ScheduleGlobal(2*time.Second, func() { client.Close() })
	dom.RunFor(2 * time.Second)
	if want := []string{fmt.Sprintf("%v %v", 2*time.Second+oneWay, transport.ErrClosed)}; !slices.Equal(log, want) {
		t.Fatalf("server endpoint saw %q, want %q", log, want)
	}
}
