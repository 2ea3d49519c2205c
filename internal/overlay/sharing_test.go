package overlay

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// The sharing machinery: a federation member's merged view and remote
// snapshots are private, recycled buffers while they change, and the
// interner's canonical, read-only copies from the first quiescent gossip
// round on. These tests pin both halves — one copy of the world once
// gossip settles, and no way for a recycled buffer to show through
// state somebody still reads — plus the property that makes it safe to
// ship: an interner never changes what a member answers.

// internFed is fedWorld with a deployment-wide interner (nil for none)
// and a config hook.
func internFed(s vtime.Runtime, net func(i int) transport.Network, addrs []string, it *Interner, tweak func(*SupernodeConfig)) []*Supernode {
	sns := make([]*Supernode, len(addrs))
	for i := range sns {
		cfg := SupernodeConfig{Addr: addrs[i], Shard: i, Federation: addrs,
			GossipInterval: 100 * time.Millisecond, Intern: it}
		if tweak != nil {
			tweak(&cfg)
		}
		sns[i] = NewSupernode(s, net(i), cfg)
	}
	return sns
}

func simFed(t *testing.T, s *vtime.Scheduler, n *simnet.Net, k int, it *Interner, tweak func(*SupernodeConfig)) ([]*Supernode, []string) {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("fsn%d:8800", i)
	}
	sns := internFed(s, func(i int) transport.Network { return n.Node(fmt.Sprintf("fsn%d", i)) }, addrs, it, tweak)
	return sns, addrs
}

func hostNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("h-%02d", i)
	}
	return out
}

func startAll(t *testing.T, sns []*Supernode) {
	t.Helper()
	for _, sn := range sns {
		if err := sn.Start(); err != nil {
			t.Errorf("start: %v", err)
		}
	}
}

func registerHome(t *testing.T, n *simnet.Net, addrs []string, p proto.PeerInfo) {
	t.Helper()
	home := ShardAssign(p.ID, len(addrs))
	if _, err := RegisterWith(n.Node(p.ID), addrs[home], p, time.Second); err != nil {
		t.Errorf("register %s at shard %d: %v", p.ID, home, err)
	}
}

// TestQuiescentFederationSharesOneCopy: once gossip settles, every
// member's merged view aliases the interner's canonical array, every
// member's snapshot of a shard aliases the interner's copy of that
// shard, nothing keeps append slack, and the gossip scratch is gone.
func TestQuiescentFederationSharesOneCopy(t *testing.T) {
	const k = 4
	hosts := hostNames(24)
	s, n := fedNet(t, k, hosts...)
	it := NewInterner()
	sns, addrs := simFed(t, s, n, k, it, nil)
	s.Go("main", func() {
		startAll(t, sns)
		for _, h := range hosts {
			registerHome(t, n, addrs, peer(h))
		}
		s.Sleep(2 * time.Second)
		if len(it.merged) != len(hosts) || cap(it.merged) != len(it.merged) {
			t.Errorf("canonical view: len %d cap %d, want %d exactly", len(it.merged), cap(it.merged), len(hosts))
		}
		for i, sn := range sns {
			sn.mu.Lock()
			if !sn.mergedShared || unsafe.SliceData(sn.merged) != unsafe.SliceData(it.merged) {
				t.Errorf("member %d holds a private merged view after quiescence", i)
			}
			if len(sn.meta) != len(sn.merged) || cap(sn.meta) != len(sn.meta) {
				t.Errorf("member %d meta: len %d cap %d for %d entries", i, len(sn.meta), cap(sn.meta), len(sn.merged))
			}
			for j := range sns {
				if j == i || sns[j].PeerCount() == 0 {
					continue
				}
				r, canon := sn.remote[j], it.snaps[j].peers
				if r == nil || !r.shared || unsafe.SliceData(r.peers) != unsafe.SliceData(canon) {
					t.Errorf("member %d holds a private snapshot of shard %d after quiescence", i, j)
				}
				if cap(canon) != len(canon) || len(canon) != sns[j].PeerCount() {
					t.Errorf("canonical shard %d: len %d cap %d, owner has %d", j, len(canon), cap(canon), sns[j].PeerCount())
				}
			}
			if g := &sn.gossip; g.delta.Shards != nil || slices.ContainsFunc(g.resolver.Hints, func(h []proto.PeerInfo) bool { return h != nil }) {
				t.Errorf("member %d kept its decode scratch through a quiescent round", i)
			}
			sn.mu.Unlock()
			sn.Close()
		}
	})
	s.Wait()
}

// TestRegistrationCopiesOnWrite: members that alias one canonical view
// stay isolated — a registration at one of them is visible there at
// once and nowhere else until gossip delivers it, and the canonical
// array itself is never edited.
func TestRegistrationCopiesOnWrite(t *testing.T) {
	const k = 4
	hosts := hostNames(12)
	s, n := fedNet(t, k, append(hosts, "h-new")...)
	it := NewInterner()
	sns, addrs := simFed(t, s, n, k, it, nil)
	s.Go("main", func() {
		startAll(t, sns)
		for _, h := range hosts {
			registerHome(t, n, addrs, peer(h))
		}
		s.Sleep(2*time.Second + 10*time.Millisecond) // settled, and just past a gossip tick
		canon := it.merged
		before := slices.Clone(canon)
		at := ShardAssign("h-new", k)
		registerHome(t, n, addrs, peer("h-new"))
		for i, sn := range sns {
			snap := sn.Snapshot()
			if i == at {
				if len(snap) != len(before)+1 {
					t.Errorf("registering member lists %d hosts, want %d", len(snap), len(before)+1)
				}
			} else if !slices.Equal(snap, before) {
				t.Errorf("member %d changed before gossip delivered the registration: %v", i, snap)
			}
		}
		if !slices.Equal(canon, before) {
			t.Error("the canonical view was edited in place")
		}
		s.Sleep(time.Second)
		for i, sn := range sns {
			if got := sn.MergedCount(); got != len(before)+1 {
				t.Errorf("member %d lists %d hosts after gossip, want %d", i, got, len(before)+1)
			}
			sn.Close()
		}
	})
	s.Wait()
}

var poison = proto.PeerInfo{ID: "\x00POISON", Site: "POISON", MPDAddr: "POISON", RSAddr: "POISON"}

// poisonRecycled overwrites, to full capacity, every buffer that is
// waiting for reuse: the pooled view pairs and each member's vacated
// decode scratch. Anything still reading one of them sees poison.
func poisonRecycled(sns []*Supernode) (buffers int) {
	var held []*viewBuf
	for i := 0; i < 64; i++ {
		b := viewPool.Get().(*viewBuf)
		if cap(b.peers)+cap(b.meta) == 0 {
			continue
		}
		for j := range b.peers[:cap(b.peers)] {
			b.peers[:cap(b.peers)][j] = poison
		}
		for j := range b.meta[:cap(b.meta)] {
			b.meta[:cap(b.meta)][j] = entryMeta{shard: -99, seen: -99}
		}
		held = append(held, b)
	}
	for _, b := range held {
		viewPool.Put(b)
	}
	buffers = len(held)
	for _, sn := range sns {
		shards := sn.gossip.delta.Shards
		for _, st := range shards[:cap(shards)] {
			for j := range st.Peers[:cap(st.Peers)] {
				st.Peers[:cap(st.Peers)][j] = poison
			}
			for j := range st.Seen[:cap(st.Seen)] {
				st.Seen[:cap(st.Seen)][j] = -99
			}
			if cap(st.Peers)+cap(st.Seen) > 0 {
				buffers++
			}
		}
	}
	return buffers
}

func hasPoison(list []proto.PeerInfo) bool {
	return slices.ContainsFunc(list, func(p proto.PeerInfo) bool { return strings.Contains(p.ID+p.Site, "POISON") })
}

// TestRecycledBuffersNeverAliasLiveState drives a federation through
// growth, an info change, expiry and quiescent rounds, and at every
// step poisons whatever sits in the pools: no member's view, no stored
// snapshot and no canonical slice may show it, then or later.
func TestRecycledBuffersNeverAliasLiveState(t *testing.T) {
	const k = 4
	hosts := hostNames(20)
	s, n := fedNet(t, k, hosts...)
	it := NewInterner()
	sns, addrs := simFed(t, s, n, k, it, func(c *SupernodeConfig) {
		c.TTL, c.SweepInterval = 3*time.Second, 500*time.Millisecond
	})
	poisoned := 0
	check := func(when string) {
		want := make([][]proto.PeerInfo, k)
		for i, sn := range sns {
			want[i] = sn.Snapshot()
		}
		poisoned += poisonRecycled(sns)
		for i, sn := range sns {
			if got := sn.Snapshot(); !slices.Equal(got, want[i]) || hasPoison(got) {
				t.Errorf("%s: member %d's view changed under a recycled buffer: %v", when, i, got)
			}
			sn.mu.Lock()
			for j, r := range sn.remote {
				if hasPoison(r.peers) || slices.Contains(r.seen, -99) {
					t.Errorf("%s: member %d's snapshot of shard %d aliases a recycled buffer", when, i, j)
				}
			}
			if slices.ContainsFunc(sn.meta, func(m entryMeta) bool { return m.shard == -99 }) {
				t.Errorf("%s: member %d's meta aliases a recycled buffer", when, i)
			}
			sn.mu.Unlock()
		}
		it.mu.Lock()
		bad := hasPoison(it.merged)
		for _, e := range it.snaps {
			bad = bad || hasPoison(e.peers)
		}
		it.mu.Unlock()
		if bad {
			t.Errorf("%s: a published slice aliases a recycled buffer", when)
		}
	}
	alive := func(skip string) {
		for _, h := range hosts {
			if h != skip {
				SendAlive(n.Node(h), addrs[ShardAssign(h, k)], h, time.Second)
			}
		}
	}
	s.Go("main", func() {
		startAll(t, sns)
		for i, h := range hosts {
			registerHome(t, n, addrs, peer(h))
			if i%4 == 3 {
				s.Sleep(150 * time.Millisecond) // let gossip interleave with growth
				check("growing")
			}
		}
		s.Sleep(time.Second)
		check("settled")
		moved := peer(hosts[3])
		moved.MPDAddr = "elsewhere:9000"
		registerHome(t, n, addrs, moved)
		s.Sleep(250 * time.Millisecond)
		check("info change in flight")
		for i := 0; i < 5; i++ { // hosts[7] falls silent and expires
			s.Sleep(time.Second)
			alive(hosts[7])
			check("expiry")
		}
		for i, sn := range sns {
			snap := sn.Snapshot()
			if len(snap) != len(hosts)-1 || hasPoison(snap) ||
				slices.ContainsFunc(snap, func(p proto.PeerInfo) bool { return p.ID == hosts[7] }) {
				t.Errorf("member %d ends with %v", i, snap)
			}
			sn.Close()
		}
	})
	s.Wait()
	if poisoned == 0 {
		t.Error("no recycled buffer was ever found to poison: the test exercised nothing")
	}
}

// TestInternerIsInvisible runs one scripted history — registrations, an
// info change, a foster registration, a silent host's expiry, and a
// partition long enough that each side sweeps the other's shards before
// it heals — with a shared interner and with none, sampling every
// member's Snapshot, KnownVersions and Stats every 50 ms: the two logs
// must be identical. Sharing is a memory optimization; it must never
// change an answer, a version or a byte count.
func TestInternerIsInvisible(t *testing.T) {
	const k = 4
	hosts := hostNames(14)
	script := func(it *Interner) (log []string) {
		s := vtime.New()
		defer s.Shutdown()
		hostSite := map[string]string{"fsn0": "west", "fsn1": "west", "fsn2": "east", "fsn3": "east"}
		for _, h := range hosts {
			hostSite[h] = "edge"
		}
		n := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: time.Millisecond},
			simnet.Config{Seed: 11, NICBps: 1e9})
		sns, addrs := simFed(t, s, n, k, it, func(c *SupernodeConfig) {
			c.TTL, c.SweepInterval = 3*time.Second, time.Second
		})
		events := map[int]func(){
			20: func() { // info change
				p := peer(hosts[3])
				p.RSAddr = "moved:9001"
				registerHome(t, n, addrs, p)
			},
			30: func() { // foster copy next to the home registration
				foster := (ShardAssign(hosts[8], k) + 1) % k
				if _, err := RegisterRaw(n.Node(hosts[8]), addrs[foster], peer(hosts[8]), true, time.Second); err != nil {
					t.Errorf("foster: %v", err)
				}
			},
			40:  func() { n.SetCut("west", "east", true) },
			50:  func() { registerHome(t, n, addrs, peer(hosts[12])) },
			60:  func() { registerHome(t, n, addrs, peer(hosts[13])) },
			130: func() { n.SetCut("west", "east", false) },
		}
		s.Go("script", func() {
			startAll(t, sns)
			for _, h := range hosts[:12] {
				registerHome(t, n, addrs, peer(h))
			}
			for step := 0; step < 200; step++ {
				if wait := time.Duration(step)*50*time.Millisecond - s.Elapsed(); wait > 0 {
					s.Sleep(wait)
				}
				if ev := events[step]; ev != nil {
					ev()
				}
				if step%20 == 19 {
					for i, h := range hosts {
						if i != 5 && (i < 12 || step > 60) { // hosts[5] falls silent
							SendAlive(n.Node(h), addrs[ShardAssign(h, k)], h, time.Second)
						}
					}
				}
				for i, sn := range sns {
					log = append(log, fmt.Sprintf("step %d member %d: %v %v %+v",
						step, i, sn.Snapshot(), sn.KnownVersions(), sn.Stats()))
				}
			}
			for _, sn := range sns {
				sn.Close()
			}
		})
		s.Wait()
		// The history must have exercised what it claims to.
		for i, sn := range sns {
			if got := sn.MergedCount(); got != len(hosts)-1 {
				t.Errorf("member %d ends with %d hosts, want %d (all but the silent one)", i, got, len(hosts)-1)
			}
		}
		return log
	}
	shared, private := script(NewInterner()), script(nil)
	if len(shared) != len(private) {
		t.Fatalf("%d samples with an interner, %d without", len(shared), len(private))
	}
	for i := range shared {
		if shared[i] != private[i] {
			t.Fatalf("the interner changed what a member reports:\nshared:  %s\nprivate: %s", shared[i], private[i])
		}
	}
}

// loopbackNet lets a real-TCP federation use fixed logical addresses:
// Listen binds an ephemeral loopback port and Dial resolves the logical
// name, so no port has to be guessed free before it is bound.
type loopbackNet struct {
	mu    sync.Mutex
	ports map[string]string
}

func (l *loopbackNet) Listen(addr string) (transport.Listener, error) {
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err == nil {
		l.mu.Lock()
		l.ports[addr] = ln.Addr()
		l.mu.Unlock()
	}
	return ln, err
}

func (l *loopbackNet) Dial(addr string) (transport.Conn, error) {
	l.mu.Lock()
	real, ok := l.ports[addr]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("loopbackNet: nobody listens on %s", addr)
	}
	return transport.TCP{}.Dial(real)
}

// TestRealFederationConvergesWhileServing is the sharing machinery on
// real goroutines: three members on loopback TCP under vtime.Real
// gossip at 5 ms while clients register and fetch concurrently, so
// serveConn goroutines encode from views and snapshots in the same
// instants the gossip actor recycles, adopts and publishes them. The
// assertions are convergence; the point is running it under -race.
func TestRealFederationConvergesWhileServing(t *testing.T) {
	const k = 3
	net := &loopbackNet{ports: map[string]string{}}
	addrs := []string{"real0:8800", "real1:8800", "real2:8800"}
	sns := internFed(vtime.Real{}, func(int) transport.Network { return net }, addrs, NewInterner(), func(c *SupernodeConfig) {
		c.GossipInterval, c.SweepInterval = 5*time.Millisecond, 20*time.Millisecond
	})
	startAll(t, sns)
	defer func() {
		for _, sn := range sns {
			sn.Close()
		}
	}()
	hosts := hostNames(60)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hosts); i += 4 {
				p := peer(hosts[i])
				if _, err := RegisterWith(net, addrs[ShardAssign(p.ID, k)], p, 5*time.Second); err != nil {
					t.Errorf("register %s: %v", p.ID, err)
				}
				if _, err := FetchFrom(net, addrs[i%k], 5*time.Second); err != nil {
					t.Errorf("fetch: %v", err)
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, sn := range sns {
			sn.mu.Lock()
			settled = settled && len(sn.merged) == len(hosts) && sn.mergedShared
			sn.mu.Unlock()
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			for i, sn := range sns {
				t.Errorf("member %d: %d of %d hosts, versions %v", i, sn.MergedCount(), len(hosts), sn.KnownVersions())
			}
			t.Fatal("the federation did not settle on one shared view")
		}
		if _, err := FetchFrom(net, addrs[0], 5*time.Second); err != nil { // keep serving while it settles
			t.Fatalf("fetch: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := sns[0].Snapshot()
	for i, sn := range sns[1:] {
		if !slices.Equal(sn.Snapshot(), want) {
			t.Errorf("member %d settled on a different view", i+1)
		}
	}
}
