package simnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
	"weak"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// TestDialRetainsNoAddressBuffer: the middleware dials addresses that
// are substrings of decoded frames (a Prepare's slot table), and the
// per-flow jitter counter outlives the dial. No table the network keeps
// may hold such a string, or every frame a host ever dialled from stays
// on the heap. The first dial uses an owned address, the rest views into
// 64 KiB buffers: a string-keyed counter would re-store the borrowed key
// on every bump even though the entry was created from an owned one.
func TestDialRetainsNoAddressBuffer(t *testing.T) {
	s := vtime.New()
	defer s.Shutdown()
	topo := &StaticTopology{
		HostSite: map[string]string{"a1": "east", "b1": "west"},
		DefLat:   5 * time.Millisecond,
	}
	n := New(s, topo, DefaultConfig(1))
	l, err := n.Node("b1").Listen("b1:1")
	if err != nil {
		t.Fatal(err)
	}
	l.OnConn(func(c transport.Conn) { c.Close() })
	dialer := n.Node("a1")
	dial := func(addr string) {
		dialed := false
		dialer.DialFunc(addr, transport.DialedFunc(func(c transport.Conn, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			dialed = true
			c.Close()
		}))
		s.Wait()
		if !dialed {
			t.Fatalf("dial %q did not complete", addr)
		}
	}

	dial("b1:1")
	const frames = 4
	var bufs [frames]weak.Pointer[byte]
	for i := range bufs {
		buf := make([]byte, 64<<10)
		addr := buf[len(buf)-len("b1:1"):]
		copy(addr, "b1:1")
		bufs[i] = weak.Make(&buf[0])
		dial(unsafe.String(&addr[0], len(addr)))
	}
	runtime.GC()
	for i, w := range bufs {
		if w.Value() != nil {
			t.Errorf("frame %d is still reachable after its dial completed", i)
		}
	}
	runtime.KeepAlive(n)
}

// TestFlowTableHoldsNoPointers: the flow table keeps one entry per
// (dialer, host, port) ever dialed, ~130 k on the paper world, and the
// GC scans a map with pointers in it on every cycle.
func TestFlowTableHoldsNoPointers(t *testing.T) {
	var check func(reflect.Type)
	check = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Interface,
			reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
			t.Errorf("flow table holds a %s", typ)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(typ.Field(i).Type)
			}
		case reflect.Array:
			check(typ.Elem())
		}
	}
	m := reflect.TypeOf(netShard{}.flowSeq)
	check(m.Key())
	check(m.Elem())
}

// TestMessageDeliveryZeroAllocSteadyState enforces the zero-allocation
// contract of the per-message path: once the pools are warm (delivery
// carriers, payload buffers, queue waiters, the scheduler's event slab)
// a send + receive + release cycle must not allocate. AllocsPerRun
// counts process-wide mallocs, so allocations on the scheduler's actor
// goroutines are included.
func TestMessageDeliveryZeroAllocSteadyState(t *testing.T) {
	s := vtime.New()
	defer s.Shutdown()
	topo := &StaticTopology{
		HostSite: map[string]string{"a1": "east", "b1": "west"},
		DefLat:   5 * time.Millisecond,
	}
	n := New(s, topo, DefaultConfig(1))

	s.Go("server", func() {
		l, err := n.Node("b1").Listen("b1:1")
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			m.Release() // hand the payload copy back to the pool
		}
	})

	var client transport.Conn
	s.Go("client", func() {
		var err error
		client, err = n.Node("a1").Dial("b1:1")
		if err != nil {
			t.Error(err)
		}
	})
	s.Wait()
	if client == nil {
		t.Fatal("dial failed")
	}

	payload := []byte("0123456789abcdef")
	step := func() {
		if err := client.Send(transport.Message{Payload: payload}); err != nil {
			t.Error(err)
		}
		s.Wait() // delivery fires, server receives and releases, world idles
	}
	for i := 0; i < 200; i++ {
		step() // warm every pool to its steady-state population
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("message delivery: %v allocs/op, want 0", allocs)
	}
}

// TestBarrierWindowZeroAllocSteadyState is the sharded twin of the test
// above: a full synchronization window with cross-shard traffic — send
// on shard 0, outbox drain, barrier sort + serializer replay, delivery
// on shard 1, reply crossing back — must not allocate once pools are
// warm. This pins the barrier fast path: outbox buffers, merge scratch,
// the sort, delivery carriers and the window barrier itself all recycle.
//
// The asymmetric case sends 64 B requests one way and 16 KiB replies
// the other. It pins pool ownership: a crossing payload is copied into
// a buffer of the receiving shard at the barrier and the sender's goes
// home, so each shard's pool gets back what it hands out. When the
// sender's buffer itself was delivered, 16 KiB buffers piled up in
// shard 0's pool (past its retention bound, to the GC) while shard 1
// carved new ones every window.
func TestBarrierWindowZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name       string
		req, reply int
	}{
		{"echo", 16, 0},
		{"asymmetric", 64, 16 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := barrierWindowAllocs(t, tc.req, tc.reply); allocs != 0 {
				t.Fatalf("cross-shard window: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// barrierWindowAllocs runs a ping-pong between two shards — requests
// of req bytes from a1 (shard 0), replies of reply bytes from b1
// (shard 1), or the request bounced back when reply is 0 — and returns
// the allocations per 20 ms of it once warm.
func barrierWindowAllocs(t *testing.T, req, reply int) float64 {
	dom := vtime.NewDomain(2, 5*time.Millisecond)
	defer dom.Shutdown()
	topo := &StaticTopology{
		HostSite: map[string]string{"a1": "east", "b1": "west"},
		DefLat:   5 * time.Millisecond,
	}
	n := NewSharded(dom, topo, Config{Seed: 1, NICBps: 1_000_000_000}, ShardConfig{
		SiteShard: map[string]int{"east": 0, "west": 1},
		Hosts:     []string{"a1", "b1"},
		Check:     true,
	})
	rt0, rt1 := dom.Shard(0), dom.Shard(1)

	replyPayload := make([]byte, reply)
	rt1.Go("server", func() {
		l, err := n.Node("b1").Listen("b1:1")
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			// Answer every frame so the reverse direction of the barrier
			// path (shard 1 → shard 0) is exercised too.
			out := m.Payload
			if reply > 0 {
				out = replyPayload
			}
			if err := c.Send(transport.Message{Payload: out}); err != nil {
				t.Error(err)
				return
			}
			m.Release()
		}
	})

	payload := make([]byte, req)
	dialed := false
	rt0.Go("client", func() {
		c, err := n.Node("a1").Dial("b1:1")
		if err != nil {
			t.Error(err)
			return
		}
		dialed = true
		// Ping-pong forever: every frame crosses the shard boundary at a
		// barrier, the answer crosses back at a later one.
		for {
			rt0.Sleep(10 * time.Millisecond)
			if err := c.Send(transport.Message{Payload: payload}); err != nil {
				return
			}
			m, err := c.Recv()
			if err != nil {
				return
			}
			m.Release()
		}
	})
	dom.RunFor(time.Second)
	if !dialed {
		t.Fatal("dial failed")
	}

	step := func() { dom.RunFor(20 * time.Millisecond) }
	for i := 0; i < 200; i++ {
		step()
	}
	return testing.AllocsPerRun(500, step)
}

// TestDeliveryCarriersGiveBackStorm: 40 k frames in flight on one
// connection take 40 k delivery carriers, over twice the retention
// rule's floor; once they have landed the shard holds no more carriers
// than the rule allows for what is still in flight (none), and the
// carrier blocks are garbage: across the storm the heap grows by no
// more than what the scheduler's event slab may keep.
func TestDeliveryCarriersGiveBackStorm(t *testing.T) {
	s := vtime.New()
	defer s.Shutdown()
	n := New(s, &StaticTopology{HostSite: map[string]string{"a": "east", "b": "west"}, DefLat: 5 * time.Millisecond},
		DefaultConfig(1))
	client, server := callbackPair(t, s, n, "a", "b:1")
	landed := 0
	server.OnRecv(transport.RecvFunc(func(m transport.Message, err error) {
		if err == nil {
			landed++
		}
	}), -1)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const frames = 40_000
	for range frames {
		if err := client.Send(transport.Message{Virtual: 64}); err != nil {
			t.Fatal(err)
		}
	}
	sh := n.sh[0]
	peak := sh.delLive
	s.Wait()
	if landed != frames {
		t.Fatalf("%d frames landed, want %d", landed, frames)
	}
	held := sh.delFreeN + sh.delLive
	after := heap()
	t.Logf("%d carriers in flight at the peak; %d held after the drain; heap %+d B across the storm",
		peak, held, int64(after)-int64(before))
	if peak != frames {
		t.Fatalf("%d carriers in flight at the peak, want %d", peak, frames)
	}
	if limit := vtime.KeepLimit(sh.delLive); held > limit {
		t.Fatalf("the shard holds %d carriers after the drain, want ≤ %d", held, limit)
	}
	// The slab may keep KeepLimit(0) slots of a 48 B event and three
	// int32 indices; 40 k carriers are 2.5 MB on top.
	if grew, slab := int64(after)-int64(before), int64(vtime.KeepLimit(0))*(48+3*4); grew > slab+256<<10 {
		t.Fatalf("the heap grew by %d B across the storm, want the carrier blocks given back (≤ %d)", grew, slab+256<<10)
	}
	runtime.KeepAlive(client)
}
