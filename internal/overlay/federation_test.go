package overlay

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/vtime"
)

// fedWorld boots a K-member federation on one flat site, returning the
// members in shard order. The caller drives the scheduler.
func fedWorld(t *testing.T, s *vtime.Scheduler, n *simnet.Net, k int) ([]*Supernode, []string) {
	return simFed(t, s, n, k, nil, nil)
}

func fedNet(t *testing.T, k int, extra ...string) (*vtime.Scheduler, *simnet.Net) {
	t.Helper()
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	hostSite := map[string]string{}
	for i := 0; i < k; i++ {
		hostSite[fmt.Sprintf("fsn%d", i)] = "hub"
	}
	for _, h := range extra {
		hostSite[h] = "edge"
	}
	n := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: time.Millisecond},
		simnet.Config{Seed: 11, NICBps: 1e9})
	return s, n
}

// TestGossipConvergesMergedViews: peers registered at different shards
// become visible in every member's merged view within a few gossip
// rounds, and the propagation-staleness samples are recorded.
func TestGossipConvergesMergedViews(t *testing.T) {
	const k = 4
	hosts := []string{"h-a", "h-b", "h-c", "h-d", "h-e", "h-f"}
	s, n := fedNet(t, k, hosts...)
	sns, addrs := fedWorld(t, s, n, k)
	s.Go("main", func() {
		for _, sn := range sns {
			if err := sn.Start(); err != nil {
				t.Errorf("start: %v", err)
				return
			}
		}
		// Register every host at its home shard, like MPDs do.
		for _, h := range hosts {
			home := ShardAssign(h, k)
			if _, err := RegisterWith(n.Node(h), addrs[home], peer(h), time.Second); err != nil {
				t.Errorf("register %s at shard %d: %v", h, home, err)
			}
		}
		s.Sleep(2 * time.Second) // >> log2(4) gossip rounds at 100ms
		for _, sn := range sns {
			sn.Close()
		}
	})
	s.Wait()
	for i, sn := range sns {
		if got := sn.MergedCount(); got != len(hosts) {
			t.Errorf("shard %d merged view has %d entries, want %d", i, got, len(hosts))
		}
		snap := sn.Snapshot()
		seen := map[string]int{}
		for _, p := range snap {
			seen[p.ID]++
		}
		for _, h := range hosts {
			if seen[h] != 1 {
				t.Errorf("shard %d lists %s %d times", i, h, seen[h])
			}
		}
	}
	var stale int64
	for _, sn := range sns {
		stale += sn.Stats().StaleSamples
	}
	if stale == 0 {
		t.Error("no staleness samples across the federation")
	}
}

// TestRegisterRedirectsToHomeShard: an unforced Register at the wrong
// member answers ShardRedirect naming the home member, and the entry is
// NOT accepted locally; a forced one is fostered.
func TestRegisterRedirectsToHomeShard(t *testing.T) {
	const k = 3
	s, n := fedNet(t, k, "h-x")
	sns, addrs := fedWorld(t, s, n, k)
	home := ShardAssign("h-x", k)
	wrong := (home + 1) % k
	s.Go("main", func() {
		for _, sn := range sns {
			if err := sn.Start(); err != nil {
				t.Errorf("start: %v", err)
				return
			}
		}
		reply, err := RegisterRaw(n.Node("h-x"), addrs[wrong], peer("h-x"), false, time.Second)
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		defer reply.Release()
		if got := proto.Peek(reply.Payload); got != proto.TShardRedirect {
			t.Errorf("unforced register at wrong shard answered %v, want shardredirect", got)
			return
		}
		var rd proto.ShardRedirect
		if err := proto.DecodeInto(reply.Payload, &rd); err != nil {
			t.Errorf("decode redirect: %v", err)
			return
		}
		if rd.Shard != home || rd.Addr != addrs[home] {
			t.Errorf("redirect points at shard %d %q, want %d %q", rd.Shard, rd.Addr, home, addrs[home])
		}
		// Forced: the wrong member fosters.
		if _, err := RegisterRaw(n.Node("h-x"), addrs[wrong], peer("h-x"), true, time.Second); err != nil {
			t.Errorf("forced register: %v", err)
		}
		for _, sn := range sns {
			sn.Close()
		}
	})
	s.Wait()
	if got := sns[wrong].PeerCount(); got != 1 {
		t.Errorf("foster shard owns %d entries, want 1", got)
	}
	st := sns[wrong].Stats()
	if st.Redirects != 1 || st.Fostered != 1 {
		t.Errorf("stats = %d redirects / %d fostered, want 1 / 1", st.Redirects, st.Fostered)
	}
}

// TestDeadShardSnapshotExpires: when a member dies permanently, its
// snapshot ages out of the survivors' merged views after the TTL — a
// dead shard must not keep its (equally dead, never-failed-over) peers
// listed forever. The healthy member's own entries survive.
func TestDeadShardSnapshotExpires(t *testing.T) {
	const k = 2
	s, n := fedNet(t, k, "h-dead", "h-live")
	addrs := []string{"fsn0:8800", "fsn1:8800"}
	sns := make([]*Supernode, k)
	for i := 0; i < k; i++ {
		sns[i] = NewSupernode(s, n.Node(fmt.Sprintf("fsn%d", i)), SupernodeConfig{
			Addr: addrs[i], Shard: i, Federation: addrs,
			GossipInterval: 100 * time.Millisecond,
			TTL:            5 * time.Second, SweepInterval: time.Second,
		})
	}
	// Register one peer per shard, regardless of rendezvous homes
	// (forced registration keeps the test independent of the hash).
	deadShard := 0
	liveShard := 1
	s.Go("main", func() {
		for _, sn := range sns {
			if err := sn.Start(); err != nil {
				t.Errorf("start: %v", err)
				return
			}
		}
		if _, err := RegisterRaw(n.Node("h-dead"), addrs[deadShard], peer("h-dead"), true, time.Second); err != nil {
			t.Errorf("register h-dead: %v", err)
		}
		if _, err := RegisterRaw(n.Node("h-live"), addrs[liveShard], peer("h-live"), true, time.Second); err != nil {
			t.Errorf("register h-live: %v", err)
		}
		s.Sleep(time.Second) // gossip: both members see both peers
		if got := sns[liveShard].MergedCount(); got != 2 {
			t.Errorf("pre-death merged view has %d entries, want 2", got)
		}
		// The dead shard's host vanishes for good; its peer sends no
		// more alives either.
		n.FailHost(fmt.Sprintf("fsn%d", deadShard))
		for i := 0; i < 10; i++ {
			s.Sleep(time.Second)
			if known, err := SendAlive(n.Node("h-live"), addrs[liveShard], "h-live", time.Second); err != nil || !known {
				t.Errorf("alive h-live: known=%v err=%v", known, err)
			}
		}
		if got := sns[liveShard].MergedCount(); got != 1 {
			t.Errorf("survivor still serves %d entries long past the dead shard's TTL, want 1", got)
		}
		for _, p := range sns[liveShard].Snapshot() {
			if p.ID == "h-dead" {
				t.Error("the dead shard's peer is still listed")
			}
		}
		for _, sn := range sns {
			sn.Close()
		}
	})
	s.Wait()
}

// TestFosterEntryYieldsToHomeRegistration: a host fostered on shard B
// re-registers at its revived home shard A; both snapshots list it, and
// every merged view resolves the conflict to exactly one entry (the
// fresher home claim). After B's TTL sweep expires the foster copy, the
// federation converges back to home ownership everywhere.
func TestFosterEntryYieldsToHomeRegistration(t *testing.T) {
	const k = 2
	s, n := fedNet(t, k, "h-y")
	addrs := []string{"fsn0:8800", "fsn1:8800"}
	sns := make([]*Supernode, k)
	for i := 0; i < k; i++ {
		sns[i] = NewSupernode(s, n.Node(fmt.Sprintf("fsn%d", i)), SupernodeConfig{
			Addr: addrs[i], Shard: i, Federation: addrs,
			GossipInterval: 100 * time.Millisecond,
			TTL:            3 * time.Second, SweepInterval: time.Second,
		})
	}
	home := ShardAssign("h-y", k)
	foster := 1 - home
	s.Go("main", func() {
		for _, sn := range sns {
			if err := sn.Start(); err != nil {
				t.Errorf("start: %v", err)
				return
			}
		}
		// Foster first (home "was down"), then the home member answers
		// again and the peer re-registers there.
		if _, err := RegisterRaw(n.Node("h-y"), addrs[foster], peer("h-y"), true, time.Second); err != nil {
			t.Errorf("foster register: %v", err)
		}
		s.Sleep(500 * time.Millisecond)
		if _, err := RegisterWith(n.Node("h-y"), addrs[home], peer("h-y"), time.Second); err != nil {
			t.Errorf("home register: %v", err)
		}
		s.Sleep(time.Second)
		// Both snapshots still list it; merged views must dedup to one.
		for i, sn := range sns {
			if got := sn.MergedCount(); got != 1 {
				t.Errorf("mid-conflict shard %d merged view has %d entries, want 1", i, got)
			}
		}
		// Keep the home entry alive (the MPD's keep-alive loop) while the
		// untouched foster copy ages out of shard B's table.
		for i := 0; i < 5; i++ {
			s.Sleep(time.Second)
			if known, err := SendAlive(n.Node("h-y"), addrs[home], "h-y", time.Second); err != nil || !known {
				t.Errorf("alive at home: known=%v err=%v", known, err)
			}
		}
		for _, sn := range sns {
			sn.Close()
		}
	})
	s.Wait()
	if got := sns[foster].PeerCount(); got != 0 {
		t.Errorf("foster shard still owns %d entries after TTL", got)
	}
	if got := sns[home].PeerCount(); got != 1 {
		t.Errorf("home shard owns %d entries, want 1", got)
	}
	for i, sn := range sns {
		if got := sn.MergedCount(); got != 1 {
			t.Errorf("healed shard %d merged view has %d entries, want 1", i, got)
		}
	}
}

// TestFosteredPeerSurvivesDeadHomeShardSweep: the sweep of a dead
// member's shard is one rebuild against an empty claim set, and it must
// reinstate what somebody else still claims. A host listed by its home
// shard A (the fresher claim, so every view attributes it to A) keeps a
// foster registration alive at B. When A dies and its snapshot ages
// out, the host stays listed — at B from B's own table, at C from B's
// snapshot — while A's other peer, claimed by nobody, disappears.
func TestFosteredPeerSurvivesDeadHomeShardSweep(t *testing.T) {
	const k = 3
	const a, b, c = 0, 1, 2
	s, n := fedNet(t, k, "h-fostered", "h-gone", "h-c")
	sns, addrs := simFed(t, s, n, k, nil, func(c *SupernodeConfig) {
		c.TTL, c.SweepInterval = 5*time.Second, time.Second
	})
	forced := func(host string, shard int) {
		if _, err := RegisterRaw(n.Node(host), addrs[shard], peer(host), true, time.Second); err != nil {
			t.Errorf("register %s at shard %d: %v", host, shard, err)
		}
	}
	s.Go("main", func() {
		startAll(t, sns)
		forced("h-fostered", b) // the foster copy first…
		forced("h-c", c)
		s.Sleep(500 * time.Millisecond)
		forced("h-fostered", a) // …then the fresher home claim
		forced("h-gone", a)
		s.Sleep(time.Second)
		for i, sn := range sns {
			sn.mu.Lock()
			j, found := findSorted(sn.merged, "h-fostered")
			if len(sn.merged) != 3 || !found || sn.meta[j].shard != a {
				t.Errorf("member %d before the death: %d entries, h-fostered attributed to %v, want shard %d", i, len(sn.merged), sn.meta, a)
			}
			sn.mu.Unlock()
		}
		n.FailHost("fsn0")
		for i := 0; i < 9; i++ {
			s.Sleep(time.Second)
			for host, shard := range map[string]int{"h-fostered": b, "h-c": c} {
				if known, err := SendAlive(n.Node(host), addrs[shard], host, time.Second); err != nil || !known {
					t.Errorf("alive %s: known=%v err=%v", host, known, err)
				}
			}
		}
		for _, i := range []int{b, c} {
			var ids []string
			for _, p := range sns[i].Snapshot() {
				ids = append(ids, p.ID)
			}
			if fmt.Sprint(ids) != "[h-c h-fostered]" {
				t.Errorf("member %d lists %v after sweeping the dead shard, want [h-c h-fostered]", i, ids)
			}
			sns[i].mu.Lock()
			if j, found := findSorted(sns[i].merged, "h-fostered"); found && sns[i].meta[j].shard != b {
				t.Errorf("member %d attributes h-fostered to shard %d, want the foster shard %d", i, sns[i].meta[j].shard, b)
			}
			sns[i].mu.Unlock()
		}
		for _, sn := range sns {
			sn.Close()
		}
	})
	s.Wait()
}
