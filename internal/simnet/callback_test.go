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
// FIN reaches it exactly once, after all in-flight data; and an endpoint
// served by a handler never builds its inbox.
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
	if server.inbox != nil {
		t.Fatal("a handler-served endpoint allocated its inbox")
	}
	if !server.peerClosed {
		t.Fatal("FIN did not mark the endpoint")
	}
}

// TestOnRecvDrainsQueuedFramesFIFO: a handler installed after frames
// (and the FIN) already arrived gets them first, in order, then the
// close — once — and later traffic is not queued again.
func TestOnRecvDrainsQueuedFramesFIFO(t *testing.T) {
	s, n := testNet(t, zeroJitter())
	client, server := callbackPair(t, s, n, "a1", "b1:100")
	send(t, client, "one", "two")
	s.Wait() // both frames now sit in the inbox
	if server.inbox == nil || server.inbox.Len() != 2 {
		t.Fatal("frames without a handler were not queued")
	}
	var log []string
	server.OnRecv(recvLog(s, &log), 0)
	if len(log) != 2 || !strings.HasSuffix(log[0], " one") || !strings.HasSuffix(log[1], " two") {
		t.Fatalf("drain delivered %q, want one then two", log)
	}
	if server.inbox != nil {
		t.Fatal("the drained inbox is still attached")
	}
	send(t, client, "three")
	client.Close()
	s.Wait()
	if len(log) != 4 || !strings.HasSuffix(log[2], " three") || !strings.HasSuffix(log[3], transport.ErrClosed.Error()) {
		t.Fatalf("after the drain the handler saw %q", log)
	}

	// Same, with the FIN already in: data, then the close, at install.
	client, server = callbackPair(t, s, n, "a2", "b2:100")
	send(t, client, "late")
	client.Close()
	s.Wait()
	log = nil
	server.OnRecv(recvLog(s, &log), 0)
	if len(log) != 2 || !strings.HasSuffix(log[0], " late") || !strings.HasSuffix(log[1], transport.ErrClosed.Error()) {
		t.Fatalf("install after FIN delivered %q, want the frame then one close", log)
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
