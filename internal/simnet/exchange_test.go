package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pmpi/internal/transport"
)

// serveEcho answers every frame on addr with a copy of it.
func serveEcho(t *testing.T, n *Net, addr string) {
	t.Helper()
	host, _, _ := splitAddr(addr)
	l, err := n.Node(host).Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	transport.Serve(l, func(c transport.Conn, m transport.Message) bool {
		err := c.Send(m)
		m.Release()
		return err == nil
	})
}

// TestEchoExchangeDispatchesFiveEvents: one Call on one shard is the
// SYN, the accept, the request, the reply and the client's FIN. The
// server's FIN, which would land on the already closed client and
// change nothing there, is not sent: six events became five.
func TestEchoExchangeDispatchesFiveEvents(t *testing.T) {
	s, n := testNet(t, DefaultConfig(3))
	serveEcho(t, n, "b1:100")
	var reply string
	transport.Call(n.Node("a1"), "b1:100", transport.Message{Payload: []byte("hi")}, time.Second,
		func(m transport.Message, err error) {
			reply = string(m.Payload)
			m.Release()
		})
	s.Wait()
	if reply != "hi" {
		t.Fatalf("reply %q", reply)
	}
	if got := s.Dispatched(); got != 5 {
		t.Fatalf("one exchange dispatched %d events, want 5 (SYN, accept, request, reply, the client's FIN)", got)
	}
	if s.PendingEvents() != 0 {
		t.Fatalf("%d events left behind", s.PendingEvents())
	}
}

// TestFinToClosedPeerCrossesShards: a FIN whose peer already closed is
// dropped only when the peer's shard is the sender's own — only then
// can the sender read the peer's state. Across shards the FIN still
// goes, and lands as a no-op event on the peer's shard.
func TestFinToClosedPeerCrossesShards(t *testing.T) {
	// One shard: the second close sends nothing.
	s, n := testNet(t, zeroJitter())
	client, server := callbackPair(t, s, n, "a1", "b1:100")
	server.Close()
	s.Wait()
	before := s.Dispatched()
	client.Close()
	s.Wait()
	if got := s.Dispatched() - before; got != 0 {
		t.Fatalf("one shard: closing after the peer dispatched %d events, want 0", got)
	}

	// Two shards: it still sends its FIN.
	const oneWay = 5 * time.Millisecond
	dom, sn := shardedNet(t, twoSiteTopo(oneWay), oneWay, true)
	l, err := sn.Node("b1").Listen("b1:100")
	if err != nil {
		t.Fatal(err)
	}
	var srv transport.Conn
	l.OnConn(func(c transport.Conn) { srv = c })
	var cli transport.Conn
	dom.Shard(0).Go("client", func() { cli, _ = sn.Node("a1").Dial("b1:100") })
	dom.RunFor(time.Second)
	if cli == nil || srv == nil {
		t.Fatal("handshake did not complete")
	}
	// Closes from outside the shards go through global events (see
	// TestGlobalEventCloseLandsAtItsBarrier).
	dom.ScheduleGlobal(2*time.Second, func() { srv.Close() })
	dom.RunFor(2 * time.Second)
	before = dom.Shard(1).Dispatched()
	dom.ScheduleGlobal(4*time.Second, func() { cli.Close() })
	dom.RunFor(2 * time.Second)
	if got := dom.Shard(1).Dispatched() - before; got != 1 {
		t.Fatalf("two shards: the FIN to a closed peer dispatched %d events on its shard, want 1", got)
	}
}

// TestOnRecvDeadline: a positive OnRecv timeout hands the handler
// ErrTimeout when nothing arrived in time, and nothing after it; a
// frame in time disarms it, and the deadline leaves the event heap.
func TestOnRecvDeadline(t *testing.T) {
	s, n := testNet(t, zeroJitter())
	client, server := callbackPair(t, s, n, "a1", "b1:100")
	var log []string
	want := fmt.Sprintf("%v %v", s.Elapsed()+time.Second, transport.ErrTimeout)
	client.OnRecv(recvLog(s, &log), time.Second)
	s.Schedule(2*time.Second, func() { send(t, server, "late") })
	s.Wait()
	if len(log) != 1 || log[0] != want {
		t.Fatalf("handler saw %q, want %q alone", log, want)
	}

	client, server = callbackPair(t, s, n, "a2", "b2:100")
	log = nil
	client.OnRecv(recvLog(s, &log), time.Second)
	send(t, server, "in time")
	s.Wait()
	if len(log) != 1 || !strings.HasSuffix(log[0], " in time") {
		t.Fatalf("handler saw %q, want the frame alone", log)
	}
	if s.PendingEvents() != 0 {
		t.Fatalf("%d events pending: the answered deadline is still queued", s.PendingEvents())
	}
}

// TestBlockingDialAllocs bounds a blocking Dial from an actor: the
// handshake record, which holds both endpoints and both jitter
// streams, and nothing else. The actor parks on its own vtime.Parker.
// Before the record and the parker, the same loop cost 15 allocations
// per Dial: the handshake, two conns, the flow stream and its
// rand.Rand, the address built twice, and a queue, its waiter and the
// captured results of the wait; 2 while the dialing endpoint spelled
// its ephemeral address.
func TestBlockingDialAllocs(t *testing.T) {
	s, n := testNet(t, DefaultConfig(5))
	l, err := n.Node("b1").Listen("b1:100")
	if err != nil {
		t.Fatal(err)
	}
	l.OnConn(func(c transport.Conn) { c.Close() })
	var avg float64
	s.Go("dialer", func() {
		avg = testing.AllocsPerRun(200, func() {
			c, err := n.Node("a1").Dial("b1:100")
			if err != nil {
				t.Error(err)
				return
			}
			c.Close()
		})
	})
	s.Wait()
	if avg > 1 {
		t.Fatalf("%.1f allocs per blocking Dial, want at most 1", avg)
	}
	t.Logf("%.1f allocs per blocking Dial", avg)
}
