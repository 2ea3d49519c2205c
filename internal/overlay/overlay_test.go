package overlay

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/latency"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

func simWorld(t *testing.T) (*vtime.Scheduler, *simnet.Net) {
	t.Helper()
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	topo := &simnet.StaticTopology{
		HostSite: map[string]string{
			"sn": "hub", "p1": "east", "p2": "east", "p3": "west",
		},
		DefLat: 2 * time.Millisecond,
	}
	n := simnet.New(s, topo, simnet.Config{Seed: 3, NICBps: 1e9})
	return s, n
}

func peer(id string) proto.PeerInfo {
	return proto.PeerInfo{ID: id, MPDAddr: id + ":9000", RSAddr: id + ":9001"}
}

// sendAlive refreshes id's last-seen stamp at the supernode and reports
// whether the supernode lists id.
func sendAlive(net transport.Network, snAddr, id string, timeout time.Duration) (bool, error) {
	reply, err := transport.RequestReply(net, snAddr,
		transport.Message{Payload: proto.MustMarshal(&proto.Alive{ID: id})}, timeout)
	if err != nil {
		return false, err
	}
	defer reply.Release()
	var ack proto.AliveAck
	err = proto.DecodeInto(reply.Payload, &ack)
	return ack.Known, err
}

func TestRegisterReturnsHostList(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800"})
	var got []proto.PeerInfo
	s.Go("main", func() {
		if err := sn.Start(); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if _, err := RegisterWithInto(n.Node("p1"), "sn:8800", peer("p1"), time.Second, nil); err != nil {
			t.Errorf("register p1: %v", err)
		}
		list, err := RegisterWithInto(n.Node("p2"), "sn:8800", peer("p2"), time.Second, nil)
		if err != nil {
			t.Errorf("register p2: %v", err)
		}
		got = list
		sn.Close()
	})
	s.Wait()
	if len(got) != 2 || got[0].ID != "p1" || got[1].ID != "p2" {
		t.Fatalf("host list = %+v", got)
	}
}

func TestAliveKeepsPeerListed(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{
		Addr: "sn:8800", TTL: 10 * time.Second, SweepInterval: 2 * time.Second,
	})
	s.Go("main", func() {
		sn.Start()
		RegisterWithInto(n.Node("p1"), "sn:8800", peer("p1"), time.Second, nil)
		RegisterWithInto(n.Node("p2"), "sn:8800", peer("p2"), time.Second, nil)
		// p1 stays alive, p2 goes silent.
		for i := 0; i < 10; i++ {
			s.Sleep(4 * time.Second)
			known, err := sendAlive(n.Node("p1"), "sn:8800", "p1", time.Second)
			if err != nil {
				t.Errorf("alive: %v", err)
			} else if !known {
				t.Errorf("alive: supernode forgot p1")
			}
		}
		list, err := FetchFrom(n.Node("p3"), "sn:8800", time.Second)
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
		if len(list) != 1 || list[0].ID != "p1" {
			t.Errorf("after expiry, list = %+v", list)
		}
		sn.Close()
	})
	s.Wait()
}

func TestFetchFromUnreachableSupernode(t *testing.T) {
	s, n := simWorld(t)
	var err error
	s.Go("main", func() {
		_, err = FetchFrom(n.Node("p1"), "sn:8800", time.Second)
	})
	s.Wait()
	if err == nil {
		t.Fatal("fetch from nothing succeeded")
	}
}

func TestReregisterUpdatesInfo(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800"})
	s.Go("main", func() {
		sn.Start()
		RegisterWithInto(n.Node("p1"), "sn:8800", peer("p1"), time.Second, nil)
		p := peer("p1")
		p.MPDAddr = "p1:9999" // moved port
		RegisterWithInto(n.Node("p1"), "sn:8800", p, time.Second, nil)
		list, _ := FetchFrom(n.Node("p2"), "sn:8800", time.Second)
		if len(list) != 1 || list[0].MPDAddr != "p1:9999" {
			t.Errorf("list = %+v", list)
		}
		sn.Close()
	})
	s.Wait()
}

func TestSupernodeIgnoresGarbage(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800"})
	s.Go("main", func() {
		sn.Start()
		c, err := n.Node("p1").Dial("sn:8800")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Send(transport.Message{Payload: []byte{0xFF, 0x00, 0x01}})
		// The supernode must drop the conn, not crash.
		s.Sleep(50 * time.Millisecond)
		if sn.PeerCount() != 0 {
			t.Errorf("garbage registered a peer")
		}
		// And still serve well-formed clients afterwards.
		if _, err := RegisterWithInto(n.Node("p2"), "sn:8800", peer("p2"), time.Second, nil); err != nil {
			t.Errorf("register after garbage: %v", err)
		}
		sn.Close()
	})
	s.Wait()
}

func TestCacheExcludesSelf(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.Update([]proto.PeerInfo{peer("me"), peer("a"), peer("b")})
	if c.Size() != 2 {
		t.Fatalf("size = %d, want 2 (self excluded)", c.Size())
	}
}

func TestCacheRankedOrder(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.Update([]proto.PeerInfo{peer("far"), peer("near"), peer("mid"), peer("new")})
	c.Observe("far", 30*time.Millisecond)
	c.Observe("near", time.Millisecond)
	c.Observe("mid", 10*time.Millisecond)
	r := c.Ranked()
	want := []string{"near", "mid", "far", "new"} // unmeasured last
	for i, w := range want {
		if r[i].Info.ID != w {
			t.Fatalf("ranked = %v, want %v at %d", ids(r), w, i)
		}
	}
	if r[3].Latency != latency.Unknown {
		t.Fatalf("unmeasured peer has latency %v", r[3].Latency)
	}
}

func ids(r []RankedPeer) []string {
	out := make([]string, len(r))
	for i := range r {
		out[i] = r[i].Info.ID
	}
	return out
}

func TestCacheMarkDead(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.Update([]proto.PeerInfo{peer("a"), peer("b")})
	c.Observe("a", time.Millisecond)
	c.MarkDead("a")
	if c.Size() != 1 {
		t.Fatalf("size = %d after MarkDead", c.Size())
	}
	if _, ok := c.Peer("a"); ok {
		t.Fatal("dead peer still present")
	}
	// A fresh snapshot resurrects it (the supernode still lists it).
	c.Update([]proto.PeerInfo{peer("a")})
	if c.Size() != 2 {
		t.Fatal("snapshot did not resurrect peer")
	}
	if c.Latency("a") != latency.Unknown {
		t.Fatal("stale latency survived death")
	}
}

func TestCacheObserveUnknownPeerIgnored(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.Observe("ghost", time.Millisecond)
	if c.Latency("ghost") != latency.Unknown {
		t.Fatal("observation for unknown peer recorded")
	}
}

func TestSupernodeMaxPeersReturned(t *testing.T) {
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800", MaxPeersReturned: 2})
	s.Go("main", func() {
		sn.Start()
		var lastReply []proto.PeerInfo
		for _, id := range []string{"p1", "p2", "p3"} {
			list, err := RegisterWithInto(n.Node(id), "sn:8800", peer(id), time.Second, nil)
			if err != nil {
				t.Errorf("register %s: %v", id, err)
			}
			lastReply = list
		}
		if len(lastReply) != 2 {
			t.Errorf("register reply carried %d peers, want 2", len(lastReply))
		}
		// Every reply is bounded, and window starts are fresh seeded
		// draws, so repeated refreshes cover the whole membership — no
		// host is permanently hidden behind the cap.
		covered := map[string]bool{}
		for i := 0; i < 12; i++ {
			list, err := FetchFrom(n.Node("p1"), "sn:8800", time.Second)
			if err != nil {
				t.Errorf("fetch %d: %v", i, err)
				continue
			}
			if len(list) != 2 {
				t.Errorf("fetch %d returned %d peers, want 2", i, len(list))
			}
			for _, p := range list {
				covered[p.ID] = true
			}
		}
		if len(covered) != 3 {
			t.Errorf("rotating window covered %v, want all 3 peers", covered)
		}
		// The supernode still tracks everyone; only replies are bounded.
		if sn.PeerCount() != 3 {
			t.Errorf("peer count = %d, want 3", sn.PeerCount())
		}
		if got := sn.Snapshot(); len(got) != 3 {
			t.Errorf("snapshot = %d peers, want full table", len(got))
		}
		sn.Close()
	})
	s.Wait()
}

func TestSupernodeBoundedRepliesNoLockstepAliasing(t *testing.T) {
	// Clients fetching in strict lockstep must each still cover the
	// whole membership. Any deterministic cursor stride aliases to a
	// fixed window whenever clients × stride ≡ 0 mod table size (here 2
	// clients over a 4-peer table); the seeded per-reply random window
	// start has no cadence to resonate with.
	s, n := simWorld(t)
	sn := NewSupernode(s, n.Node("sn"), SupernodeConfig{Addr: "sn:8800", MaxPeersReturned: 2, Seed: 11})
	s.Go("main", func() {
		sn.Start()
		for _, id := range []string{"a1", "a2", "a3", "a4"} {
			if _, err := RegisterWithInto(n.Node("p1"), "sn:8800", peer(id), time.Second, nil); err != nil {
				t.Errorf("register %s: %v", id, err)
			}
		}
		covered := map[string]map[string]bool{"p1": {}, "p2": {}}
		for round := 0; round < 16; round++ {
			for _, client := range []string{"p1", "p2"} {
				list, err := FetchFrom(n.Node(client), "sn:8800", time.Second)
				if err != nil {
					t.Errorf("fetch %s: %v", client, err)
					continue
				}
				for _, p := range list {
					covered[client][p.ID] = true
				}
			}
		}
		for client, ids := range covered {
			if len(ids) != 4 {
				t.Errorf("client %s only ever saw %v", client, ids)
			}
		}
		sn.Close()
	})
	s.Wait()
}

func TestCacheRankedMemoizedAcrossMutations(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.Update([]proto.PeerInfo{peer("a"), peer("b"), peer("c")})
	c.Observe("a", 3*time.Millisecond)
	c.Observe("b", time.Millisecond)
	c.Observe("c", 2*time.Millisecond)
	r1 := c.Ranked()
	// A repeated call returns the same ordering from the memo, in a
	// slice the caller owns.
	r2 := c.Ranked()
	r2[0] = RankedPeer{} // must not corrupt the cache's copy
	r3 := c.Ranked()
	if ids(r1)[0] != "b" || ids(r3)[0] != "b" {
		t.Fatalf("memoized ranking broken: %v then %v", ids(r1), ids(r3))
	}
	// Every mutation kind invalidates: a new observation...
	c.Observe("a", 100*time.Microsecond)
	if got := ids(c.Ranked()); got[0] != "a" {
		t.Fatalf("after re-observe, ranking = %v", got)
	}
	// ...a death...
	c.MarkDead("a")
	if got := ids(c.Ranked()); len(got) != 2 || got[0] != "b" {
		t.Fatalf("after death, ranking = %v", got)
	}
	// ...and a snapshot that teaches a new peer.
	c.Update([]proto.PeerInfo{peer("d")})
	if got := ids(c.Ranked()); len(got) != 3 || got[2] != "d" {
		t.Fatalf("after update, ranking = %v", got)
	}
	// A snapshot that changes nothing keeps the memo warm (observable
	// only through the benchmark, but it must at least stay correct).
	c.Update([]proto.PeerInfo{peer("d")})
	if got := ids(c.Ranked()); len(got) != 3 {
		t.Fatalf("after no-op update, ranking = %v", got)
	}
}

// TestCacheRankedRevivedPeerInvalidates is the churn regression: a
// snapshot that revives a previously-dead peer carries *unchanged*
// PeerInfo (the host rebooted with the same identity), so the
// "new info?" comparison alone would keep the memoized ranking — which
// still evicts the peer — alive. The dead→alive transition itself must
// invalidate.
func TestCacheRankedRevivedPeerInvalidates(t *testing.T) {
	c := NewCache("me", latency.KindLast, 0)
	c.Update([]proto.PeerInfo{peer("a"), peer("b"), peer("c")})
	c.Observe("a", time.Millisecond)
	c.Observe("b", 2*time.Millisecond)
	c.Observe("c", 3*time.Millisecond)
	c.MarkDead("b")
	if got := ids(c.Ranked()); len(got) != 2 {
		t.Fatalf("dead peer not evicted from ranked replies: %v", got)
	}
	if !c.Dead("b") {
		t.Fatal("b not marked dead")
	}
	// The reviving snapshot ships byte-identical info for b.
	c.Update([]proto.PeerInfo{peer("b")})
	got := ids(c.Ranked())
	if len(got) != 3 {
		t.Fatalf("revived peer missing from ranked replies (stale memo): %v", got)
	}
	if c.Dead("b") {
		t.Fatal("b still marked dead after revival")
	}
	// Its latency history died with it: unmeasured peers sort last.
	if got[2] != "b" {
		t.Fatalf("revived peer kept stale latency: %v", got)
	}
	if c.Size() != 3 {
		t.Fatalf("size = %d after revival, want 3", c.Size())
	}
}

// benchCache builds a cache holding k measured peers.
func benchCache(k int) *Cache {
	c := NewCache("me", latency.KindLast, 0)
	peers := make([]proto.PeerInfo, k)
	for i := range peers {
		peers[i] = peer(fmt.Sprintf("peer%05d", i))
	}
	c.Update(peers)
	for i, p := range peers {
		c.Observe(p.ID, time.Duration(1+(i*7919)%5000)*time.Microsecond)
	}
	return c
}

// BenchmarkCacheRanked5k measures the satellite win: Submit re-ranks the
// cached peer list on every call, and at 5k peers the memoized path
// (warm: no mutation between calls) must beat the re-sorting path
// (invalidated: a ping lands between calls) by a wide margin.
func BenchmarkCacheRanked5k(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		c := benchCache(5000)
		c.Ranked() // prime the memo
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := c.Ranked(); len(r) != 5000 {
				b.Fatal("bad ranking")
			}
		}
	})
	b.Run("invalidated", func(b *testing.B) {
		c := benchCache(5000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Observe("peer00000", time.Duration(1+i%100)*time.Microsecond)
			if r := c.Ranked(); len(r) != 5000 {
				b.Fatal("bad ranking")
			}
		}
	})
}
