package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/exp"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/latency"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/reservation"
	"p2pmpi/internal/sched"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/stats"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
	"p2pmpi/internal/wire"
	"p2pmpi/internal/workload"
)

// Kernels time one exported function of one layer in isolation, the way
// the layer's own *_test.go benchmarks do, but from a main package so a
// single command reports them next to the workloads. Each kernel runs a
// fixed number of batches (fixed work, not fixed time, so two commits do
// the same thing) and reports the median per-op cost over batches; the
// p90 and the allocation count ride along in layers.json. Kernels whose
// op is nanoseconds to microseconds run 1000 batches; the few whose op
// is milliseconds (gossip round, comm-aware placement over 20k slots, a
// whole submission) run 20 to 200 so the pass stays near ten seconds.

// kernel is one timed function. Its sampler's per-op nanoseconds are
// scaled by PerOp into the metric's unit.
type kernel struct {
	Name   string  // metric name, e.g. "vtime.event_ns"
	Unit   string  // "ns", "us" or "ms"
	Allocs string  // name of the allocs/op metric, "" for none
	PerOp  float64 // divides ns/op: work items per op (e.g. peers per frame)
	Run    func(k *ksampler) error
}

func (k kernel) metrics() []metricDef {
	out := []metricDef{{Name: k.Name, Unit: k.Unit, Better: "lower"}}
	if k.Allocs != "" {
		out = append(out, metricDef{Name: k.Allocs, Unit: "count", Better: "lower"})
	}
	return out
}

// ksampler collects per-batch timings. In smoke mode (the self-test)
// every kernel runs a fiftieth of its batches on a tenth of its table.
type ksampler struct {
	smoke   bool
	nsPerOp []float64
	ops     int
	mallocs uint64
}

// table scales a set-up size (entries, slots) down for smoke mode.
func (k *ksampler) table(n int) int {
	if k.smoke {
		return n / 10
	}
	return n
}

// loop runs batches of body(ops) and records each batch's ns/op. It may
// be called from inside a virtual-time actor: it reads only the host
// clock. Allocations are counted over all batches.
func (k *ksampler) loop(batches, ops int, body func(n int)) {
	if k.smoke {
		batches = max(batches/50, 2)
	}
	k.nsPerOp = make([]float64, 0, batches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		body(ops)
		k.nsPerOp = append(k.nsPerOp, float64(time.Since(t0))/float64(ops))
	}
	runtime.ReadMemStats(&m1)
	k.mallocs = m1.Mallocs - m0.Mallocs
	k.ops = batches * ops
}

// kernelResult is one kernel's outcome in metric units.
type kernelResult struct {
	Median  float64 `json:"median"`
	P90     float64 `json:"p90"`
	Allocs  float64 `json:"allocs_per_op"`
	Batches int     `json:"batches"`
	// WallS is what the kernel cost the pass, set-up included.
	WallS float64 `json:"wall_s"`
}

func unitScale(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	}
	return 1
}

// runKernels runs every kernel once and returns metric name -> value,
// plus the per-kernel detail.
func runKernels(smoke bool) (map[string]float64, map[string]kernelResult, error) {
	values := map[string]float64{}
	detail := map[string]kernelResult{}
	for _, kn := range kernels {
		ks := ksampler{smoke: smoke}
		t0 := time.Now()
		if err := kn.Run(&ks); err != nil {
			return nil, nil, fmt.Errorf("kernel %s: %w", kn.Name, err)
		}
		if len(ks.nsPerOp) == 0 {
			return nil, nil, fmt.Errorf("kernel %s: recorded nothing", kn.Name)
		}
		per := kn.PerOp
		if per == 0 {
			per = 1
		}
		scale := unitScale(kn.Unit) * per
		res := kernelResult{
			Median:  median(ks.nsPerOp) / scale,
			P90:     quantile(ks.nsPerOp, 0.9) / scale,
			Allocs:  float64(ks.mallocs) / float64(ks.ops),
			Batches: len(ks.nsPerOp),
			WallS:   time.Since(t0).Seconds(),
		}
		detail[kn.Name] = res
		values[kn.Name] = res.Median
		if kn.Allocs != "" {
			values[kn.Allocs] = res.Allocs
		}
	}
	return values, detail, nil
}

// inActor runs fn as the only driver actor of a fresh scheduler and
// waits for the world to go idle.
func inActor(fn func(s *vtime.Scheduler) error) error {
	s := vtime.New()
	defer s.Shutdown()
	var err error
	s.Go("bench.kernel", func() { err = fn(s) })
	s.Wait()
	return err
}

// flatNet is a simulated network of the named hosts, host i on site
// i%sites, with a 5 ms backbone.
func flatNet(s *vtime.Scheduler, sites int, hosts ...string) *simnet.Net {
	hostSite := make(map[string]string, len(hosts))
	for i, h := range hosts {
		hostSite[h] = fmt.Sprintf("site%d", i%sites)
	}
	return simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: 5 * time.Millisecond}, simnet.DefaultConfig(1))
}

func peerInfo(id, site string) proto.PeerInfo {
	return proto.PeerInfo{ID: id, Site: site, MPDAddr: id + ":9000", RSAddr: id + ":9001"}
}

func peerList(n int) []proto.PeerInfo {
	out := make([]proto.PeerInfo, n)
	for i := range out {
		out[i] = peerInfo(fmt.Sprintf("node-%05d.site%02d", i, i%16), fmt.Sprintf("site%02d", i%16))
	}
	return out
}

var payload16 = []byte("0123456789abcdef")

// ctrlFrame encodes the control message wire's own benchmarks use.
func ctrlFrame() *wire.Encoder {
	e := wire.NewEncoder(64)
	e.U8(7).String("grelon-12.nancy").String("nancy").
		String("grelon-12.nancy:9000").String("grelon-12.nancy:9001").
		Int(600).Duration(17167000)
	return e
}

// deliverKernel times one-way message delivery across the backbone: the client
// bursts ops frames, then sleeps past the link latency so every
// delivery event fires before the batch ends. arm may set faults.
func deliverKernel(k *ksampler, arm func(n *simnet.Net)) error {
	return inActor(func(s *vtime.Scheduler) error {
		n := flatNet(s, 2, "a1", "b1")
		if arm != nil {
			arm(n)
		}
		l, err := n.Node("b1").Listen("b1:1")
		if err != nil {
			return err
		}
		s.Go("server", func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				m.Release()
			}
		})
		c, err := n.Node("a1").Dial("b1:1")
		if err != nil {
			return err
		}
		msg := transport.Message{Payload: payload16}
		k.loop(1000, 128, func(ops int) {
			for i := 0; i < ops; i++ {
				if err = c.Send(msg); err != nil {
					return
				}
			}
			s.Sleep(50 * time.Millisecond)
		})
		c.Close()
		l.Close()
		return err
	})
}

// snWorld boots a supernode tier of k members holding total entries
// (registered through the real exchange, replies bounded to window
// peers) and hands the driver actor the network node of a client host.
func snWorld(k, total, window int, fn func(s *vtime.Scheduler, client transport.Network, addrs []string, sns []*overlay.Supernode) error) error {
	return inActor(func(s *vtime.Scheduler) error {
		hosts := []string{"client"}
		addrs := make([]string, k)
		for i := 0; i < k; i++ {
			h := fmt.Sprintf("sn%d", i)
			hosts = append(hosts, h)
			addrs[i] = h + ":8800"
		}
		n := flatNet(s, 4, hosts...)
		intern := overlay.NewInterner()
		var fed []string
		if k > 1 {
			fed = addrs
		}
		sns := make([]*overlay.Supernode, k)
		for i := range sns {
			sns[i] = overlay.NewSupernode(s, n.Node(hosts[i+1]), overlay.SupernodeConfig{
				Addr: addrs[i], TTL: time.Hour, MaxPeersReturned: window, Seed: int64(i + 1),
				Shard: i, Federation: fed, Intern: intern,
			})
			if err := sns[i].Start(); err != nil {
				return err
			}
		}
		client := n.Node("client")
		// Register from many actors at once: sequential exchanges would
		// let hundreds of virtual seconds — and as many gossip rounds over
		// the growing tables — pass during set-up.
		const clients = 64
		mb := s.NewMailbox()
		for c := 0; c < clients; c++ {
			c := c
			s.Go("bench.register", func() {
				for i := c; i < total; i += clients {
					id := fmt.Sprintf("node-%05d.site%02d", i, i%16)
					// Forced: the member fosters whatever lands on it, so
					// the entries spread evenly without hunting for
					// home-shard IDs.
					reply, err := overlay.RegisterRaw(client, addrs[i%k], peerInfo(id, fmt.Sprintf("site%02d", i%16)), true, 2*time.Second)
					if err != nil {
						mb.Push(fmt.Errorf("register %s: %w", id, err))
						return
					}
					reply.Release()
				}
				mb.Push(nil)
			})
		}
		for c := 0; c < clients; c++ {
			if v, _ := mb.Pop(); v != nil {
				return v.(error)
			}
		}
		err := fn(s, client, addrs, sns)
		for _, sn := range sns {
			sn.Close()
		}
		return err
	})
}

// reservationKernel times op against 80 reservation services: each
// batch brokers one fresh key, then cancels it everywhere.
func reservationKernel(k *ksampler, op func(s *vtime.Scheduler, frontal transport.Network, peers []proto.PeerInfo, req proto.Reserve) error) error {
	return inActor(func(s *vtime.Scheduler) error {
		hosts := []string{"frontal"}
		for i := 0; i < 80; i++ {
			hosts = append(hosts, fmt.Sprintf("h%03d", i))
		}
		net := flatNet(s, 4, hosts...)
		var peers []proto.PeerInfo
		var svcs []*reservation.Service
		for _, h := range hosts[1:] {
			rs := reservation.New(s, net.Node(h), reservation.Config{Addr: h + ":9001", J: 1 << 20, P: 2})
			if err := rs.Start(); err != nil {
				return err
			}
			svcs = append(svcs, rs)
			peers = append(peers, peerInfo(h, "site"))
		}
		var err error
		seq := 0
		k.loop(200, 1, func(int) {
			seq++
			key := fmt.Sprintf("key-%d", seq)
			if e := op(s, net.Node("frontal"), peers, proto.Reserve{Key: key, JobID: key, Submitter: peerInfo("frontal", "site")}); e != nil {
				err = e
			}
			for _, rs := range svcs {
				rs.CancelKey(key)
			}
		})
		for _, rs := range svcs {
			rs.Close()
		}
		return err
	})
}

// mpiKernel times one collective (or point-to-point round) over n ranks
// on n hosts; every rank runs batches×ops operations, rank 0 keeps time.
func mpiKernel(k *ksampler, n, batches, ops int, op func(c *mpi.Comm) error) error {
	return inActor(func(s *vtime.Scheduler) error {
		hostSite := make(map[string]string, n)
		for i := 0; i < n; i++ {
			hostSite[fmt.Sprintf("h%02d", i)] = fmt.Sprintf("site%d", i%4)
		}
		net := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: 3 * time.Millisecond},
			simnet.Config{Seed: 4, NICBps: 1e9})
		slots := make([]mpi.Slot, n)
		for i := range slots {
			h := fmt.Sprintf("h%02d", i)
			slots[i] = mpi.Slot{Rank: i, Global: i, HostID: h, Addr: fmt.Sprintf("%s:%d", h, 47100+i)}
		}
		mb := s.NewMailbox()
		for i := 0; i < n; i++ {
			slot := slots[i]
			s.Go("rank", func() {
				c, err := mpi.Join(mpi.Config{Self: slot, Slots: slots, N: n, R: 1, Net: net.Node(slot.HostID), RT: s})
				if err != nil {
					mb.Push(err)
					return
				}
				defer c.Close()
				body := func(ops int) {
					for i := 0; i < ops && err == nil; i++ {
						err = op(c)
					}
				}
				if slot.Rank == 0 {
					k.loop(batches, ops, body)
				} else {
					body(batches * ops)
				}
				mb.Push(err)
			})
		}
		var first error
		for i := 0; i < n; i++ {
			if v, _ := mb.Pop(); v != nil && first == nil {
				first = v.(error)
			}
		}
		return first
	})
}

// instantSubmitter completes every submission at once: the scheduler's
// own admission path is all that is left to time.
type instantSubmitter struct{}

func (instantSubmitter) Submit(mpd.JobSpec) (*mpd.JobResult, error) { return &mpd.JobResult{}, nil }

func allocateKernel(strategy core.Strategy, batches int) func(k *ksampler) error {
	return func(k *ksampler) error {
		slots := make([]core.HostSlot, k.table(20000))
		for i := range slots {
			slots[i] = core.HostSlot{
				ID: fmt.Sprintf("node-%05d", i), Site: fmt.Sprintf("site%02d", i%16),
				P: 2, Cores: 2, Latency: time.Duration(i%16)*time.Millisecond + time.Duration(i)*time.Microsecond,
			}
		}
		var err error
		k.loop(batches, 1, func(int) {
			if _, e := core.Allocate(slots, 250, 1, strategy); e != nil {
				err = e
			}
		})
		return err
	}
}

var kernels = []kernel{
	// vtime: the discrete-event core.
	{Name: "vtime.event_ns", Unit: "ns", Allocs: "vtime.event_allocs", Run: func(k *ksampler) error {
		return inActor(func(s *vtime.Scheduler) error {
			k.loop(1000, 1000, func(ops int) {
				for i := 0; i < ops; i++ {
					s.Sleep(time.Millisecond)
				}
			})
			return nil
		})
	}},
	{Name: "vtime.timer_event_ns", Unit: "ns", Run: func(k *ksampler) error {
		return inActor(func(s *vtime.Scheduler) error {
			fired := 0
			fn := func(any) { fired++ }
			k.loop(1000, 1000, func(ops int) {
				for i := 0; i < ops; i++ {
					s.ScheduleArg(time.Duration(i)*time.Microsecond, fn, nil)
				}
				s.Sleep(time.Duration(ops) * time.Microsecond)
			})
			if fired == 0 {
				return errors.New("no timer fired")
			}
			return nil
		})
	}},
	{Name: "vtime.queue_handoff_ns", Unit: "ns", PerOp: 2, Run: func(k *ksampler) error {
		return inActor(func(s *vtime.Scheduler) error {
			ping, pong := vtime.NewQueue[int](s), vtime.NewQueue[int](s)
			s.Go("echo", func() {
				for {
					v, ok := ping.Pop()
					if !ok {
						return
					}
					pong.Push(v)
				}
			})
			k.loop(1000, 500, func(ops int) {
				for i := 0; i < ops; i++ {
					ping.Push(i)
					pong.Pop()
				}
			})
			ping.Close()
			return nil
		})
	}},
	{Name: "vtime.actor_spawn_ns", Unit: "ns", Run: func(k *ksampler) error {
		return inActor(func(s *vtime.Scheduler) error {
			k.loop(1000, 200, func(ops int) {
				for i := 0; i < ops; i++ {
					s.Go("child", func() {})
					s.Yield()
				}
			})
			return nil
		})
	}},
	{Name: "vtime.barrier_window_ns", Unit: "ns", Run: func(k *ksampler) error {
		// Two shards, both active in every window: each holds an actor
		// sleeping exactly one lookahead at a time.
		const lookahead = time.Millisecond
		d := vtime.NewDomain(2, lookahead)
		defer d.Shutdown()
		for i := 0; i < 2; i++ {
			sh := d.Shard(i)
			sh.Go("tick", func() {
				for {
					sh.Sleep(lookahead)
				}
			})
		}
		var windows uint64
		k.loop(1000, 1, func(int) {
			w0 := d.Windows()
			d.RunFor(200 * lookahead)
			windows += d.Windows() - w0
		})
		if windows == 0 {
			return errors.New("no window ran")
		}
		// Each batch ran windows/batches windows, not one op.
		per := float64(windows) / float64(len(k.nsPerOp))
		for i := range k.nsPerOp {
			k.nsPerOp[i] /= per
		}
		return nil
	}},

	// simnet: message delivery, sequential, cross-shard and faulted.
	{Name: "simnet.deliver_ns", Unit: "ns", Allocs: "simnet.deliver_allocs", Run: func(k *ksampler) error {
		return deliverKernel(k, nil)
	}},
	{Name: "simnet.faulted_deliver_ns", Unit: "ns", Run: func(k *ksampler) error {
		return deliverKernel(k, func(n *simnet.Net) {
			n.SetLinkFault(0.1, 1)
			n.SetDuplication(0.01, 50*time.Millisecond)
		})
	}},
	{Name: "simnet.dial_teardown_ns", Unit: "ns", Run: func(k *ksampler) error {
		return inActor(func(s *vtime.Scheduler) error {
			n := flatNet(s, 1, "a1", "b1")
			l, err := n.Node("b1").Listen("b1:1")
			if err != nil {
				return err
			}
			s.Go("server", func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					c.Close()
				}
			})
			k.loop(1000, 50, func(ops int) {
				for i := 0; i < ops; i++ {
					c, e := n.Node("a1").Dial("b1:1")
					if e != nil {
						err = e
						return
					}
					c.Close()
				}
			})
			l.Close()
			return err
		})
	}},
	{Name: "simnet.cross_deliver_ns", Unit: "ns", Run: func(k *ksampler) error {
		const oneWay = 5 * time.Millisecond
		d := vtime.NewDomain(2, oneWay)
		defer d.Shutdown()
		topo := &simnet.StaticTopology{
			HostSite: map[string]string{"a1": "east", "b1": "west"}, DefLat: oneWay,
		}
		n := simnet.NewSharded(d, topo, simnet.DefaultConfig(1), simnet.ShardConfig{
			SiteShard: map[string]int{"east": 0, "west": 1},
			Hosts:     []string{"a1", "b1"},
		})
		east, west := d.Shard(0), d.Shard(1)
		var err error
		west.Go("server", func() {
			l, e := n.Node("b1").Listen("b1:1")
			if e != nil {
				err = e
				return
			}
			c, e := l.Accept()
			if e != nil {
				return
			}
			for {
				m, e := c.Recv()
				if e != nil {
					return
				}
				m.Release()
			}
		})
		east.Go("client", func() {
			east.Sleep(time.Millisecond)
			c, e := n.Node("a1").Dial("b1:1")
			if e != nil {
				err = e
				return
			}
			msg := transport.Message{Payload: payload16}
			k.loop(1000, 128, func(ops int) {
				for i := 0; i < ops; i++ {
					if e := c.Send(msg); e != nil {
						err = e
						return
					}
				}
				east.Sleep(50 * time.Millisecond)
			})
			c.Close()
		})
		d.Wait()
		return err
	}},

	// wire and proto: the codec under every control-plane exchange.
	{Name: "wire.encode_ctrl_ns", Unit: "ns", Run: func(k *ksampler) error {
		k.loop(1000, 1000, func(ops int) {
			for i := 0; i < ops; i++ {
				_ = ctrlFrame().Bytes()
			}
		})
		return nil
	}},
	{Name: "wire.decode_ctrl_ns", Unit: "ns", Run: func(k *ksampler) error {
		buf := ctrlFrame().Bytes()
		var err error
		k.loop(1000, 1000, func(ops int) {
			for i := 0; i < ops; i++ {
				d := wire.NewDecoder(buf)
				_ = d.U8()
				_, _, _, _ = d.String(), d.String(), d.String(), d.String()
				_ = d.Int()
				_ = d.Duration()
				if d.Err() != nil {
					err = d.Err()
				}
			}
		})
		return err
	}},
	{Name: "proto.roundtrip_ns", Unit: "ns", Allocs: "proto.roundtrip_allocs", Run: func(k *ksampler) error {
		scratch := make([]byte, 0, 128)
		req := &proto.JobPing{Nonce: 12345, JobID: "job-42"}
		var got proto.JobPing
		var err error
		k.loop(1000, 1000, func(ops int) {
			for i := 0; i < ops; i++ {
				if scratch, err = proto.AppendMarshal(scratch[:0], req); err != nil {
					return
				}
				if err = proto.DecodeInto(scratch, &got); err != nil {
					return
				}
			}
		})
		return err
	}},
	{Name: "proto.peerlist_encode_ns_per_peer", Unit: "ns", PerOp: 512, Run: func(k *ksampler) error {
		peers := peerList(512)
		var dst []byte
		k.loop(1000, 4, func(ops int) {
			for i := 0; i < ops; i++ {
				dst = proto.AppendPeerListFrame(dst[:0], peers, 0, len(peers))
			}
		})
		return nil
	}},
	{Name: "proto.peerlist_decode_ns_per_peer", Unit: "ns", PerOp: 512, Run: func(k *ksampler) error {
		frame := proto.AppendPeerListFrame(nil, peerList(512), 0, 512)
		scratch := make([]proto.PeerInfo, 0, 512)
		var err error
		k.loop(1000, 4, func(ops int) {
			for i := 0; i < ops; i++ {
				if scratch, err = proto.UnmarshalPeerList(frame, scratch[:0]); err != nil {
					return
				}
			}
		})
		return err
	}},

	// overlay: the membership plane.
	{Name: "overlay.register_us", Unit: "us", Run: func(k *ksampler) error {
		// A 20k-entry table with one-peer replies: the sorted insert and
		// the exchange, without the reply window fetch_us_per_kpeer times.
		return snWorld(1, k.table(20000), 1, func(s *vtime.Scheduler, client transport.Network, addrs []string, _ []*overlay.Supernode) error {
			var scratch []proto.PeerInfo
			var err error
			seq := 0
			k.loop(1000, 4, func(ops int) {
				for i := 0; i < ops; i++ {
					seq++
					id := fmt.Sprintf("late-%06d.site00", seq)
					scratch, err = overlay.RegisterWithInto(client, addrs[0], peerInfo(id, "site00"), 2*time.Second, scratch[:0])
					if err != nil {
						return
					}
				}
			})
			return err
		})
	}},
	{Name: "overlay.fetch_us_per_kpeer", Unit: "us", PerOp: 0.512, Run: func(k *ksampler) error {
		return snWorld(1, 1024, 512, func(s *vtime.Scheduler, client transport.Network, addrs []string, _ []*overlay.Supernode) error {
			var scratch []proto.PeerInfo
			var err error
			k.loop(1000, 4, func(ops int) {
				for i := 0; i < ops; i++ {
					if scratch, err = overlay.FetchFromInto(client, addrs[0], 2*time.Second, scratch[:0]); err != nil {
						return
					}
				}
			})
			if err == nil && len(scratch) != 512 {
				err = fmt.Errorf("fetch returned %d peers, want the 512-entry window", len(scratch))
			}
			return err
		})
	}},
	{Name: "overlay.cache_update_ns_per_peer", Unit: "ns", PerOp: 512, Run: func(k *ksampler) error {
		c := overlay.NewCache("self", latency.KindLast, 0)
		c.SetInterner(overlay.NewInterner())
		all := peerList(20000)
		c.Update(all[:512])
		c.Ranked() // materialize: the deferred-merge queue is the boot path, not this one
		at := 0
		k.loop(1000, 4, func(ops int) {
			for i := 0; i < ops; i++ {
				at = (at + 512) % (len(all) - 512)
				c.Update(all[at : at+512])
			}
		})
		return nil
	}},
	{Name: "overlay.cache_ranked_us_5k", Unit: "us", Run: func(k *ksampler) error {
		c := overlay.NewCache("self", latency.KindLast, 0)
		peers := peerList(5000)
		c.Update(peers)
		rng := rand.New(rand.NewSource(1))
		for _, p := range peers {
			c.Observe(p.ID, time.Duration(rng.Intn(20000))*time.Microsecond)
		}
		k.loop(100, 1, func(int) {
			c.Observe(peers[rng.Intn(len(peers))].ID, time.Duration(rng.Intn(20000))*time.Microsecond)
			c.Ranked()
		})
		return nil
	}},
	{Name: "overlay.gossip_round_us", Unit: "us", Run: func(k *ksampler) error {
		// K=4 members holding 20k entries between them. Each op changes
		// every member's owned set by one host, then lets one gossip
		// interval pass: every member ships and merges changed shards.
		return snWorld(4, k.table(20000), 1, func(s *vtime.Scheduler, client transport.Network, addrs []string, sns []*overlay.Supernode) error {
			s.Sleep(2 * time.Second) // converge
			var err error
			seq := 0
			k.loop(40, 1, func(int) {
				for i := range addrs {
					seq++
					id := fmt.Sprintf("late-%06d.site00", seq)
					reply, e := overlay.RegisterRaw(client, addrs[i], peerInfo(id, "site00"), true, 2*time.Second)
					if e != nil {
						err = e
						return
					}
					reply.Release()
				}
				s.Sleep(250 * time.Millisecond)
			})
			if err == nil && sns[0].MergedCount() < k.table(20000) {
				err = fmt.Errorf("member 0 merged only %d entries", sns[0].MergedCount())
			}
			return err
		})
	}},
	{Name: "overlay.shard_assign_ns", Unit: "ns", Run: func(k *ksampler) error {
		peers := peerList(1000)
		sink := 0
		k.loop(1000, 1000, func(ops int) {
			for i := 0; i < ops; i++ {
				sink += overlay.ShardAssign(peers[i].ID, 16)
			}
		})
		if sink < 0 {
			return errors.New("unreachable")
		}
		return nil
	}},

	// reservation and core: brokering and placement.
	{Name: "reservation.acquire_us", Unit: "us", Run: func(k *ksampler) error {
		return reservationKernel(k, func(s *vtime.Scheduler, frontal transport.Network, peers []proto.PeerInfo, req proto.Reserve) error {
			res, _, err := reservation.Acquire(s, frontal, peers, reservation.AcquireSpec{Req: req, Timeout: time.Second, Need: 40})
			if err != nil || len(res.Offers) != 40 {
				return fmt.Errorf("acquire kept %d offers: %v", len(res.Offers), err)
			}
			return nil
		})
	}},
	{Name: "reservation.broker_us", Unit: "us", Run: func(k *ksampler) error {
		return reservationKernel(k, func(s *vtime.Scheduler, frontal transport.Network, peers []proto.PeerInfo, req proto.Reserve) error {
			if res := reservation.Broker(s, frontal, peers, req, time.Second); len(res.Offers) != len(peers) {
				return fmt.Errorf("broker got %d offers of %d", len(res.Offers), len(peers))
			}
			return nil
		})
	}},
	{Name: "core.allocate_spread_us", Unit: "us", Run: allocateKernel(core.Spread, 200)},
	{Name: "core.allocate_concentrate_us", Unit: "us", Run: allocateKernel(core.Concentrate, 200)},
	{Name: "core.allocate_commaware_us", Unit: "us", Run: allocateKernel("comm-aware", 20)},
	{Name: "core.ledger_cycle_ns", Unit: "ns", Run: func(k *ksampler) error {
		slots := make([]core.HostSlot, 2000)
		for i := range slots {
			slots[i] = core.HostSlot{ID: fmt.Sprintf("node-%05d", i), Site: "s", P: 2, Cores: 2}
		}
		asg, err := core.Allocate(slots[:200], 250, 1, core.Spread)
		if err != nil {
			return err
		}
		l := core.NewLedger(slots, 1)
		k.loop(1000, 100, func(ops int) {
			for i := 0; i < ops; i++ {
				l.Acquire(asg)
				l.Release(asg)
			}
		})
		return nil
	}},

	// mpd: one submission on the paper's booted world.
	{Name: "mpd.submit_ms", Unit: "ms", Run: func(k *ksampler) error {
		opts := exp.DefaultOptions(42)
		if k.smoke {
			opts.Topology = grid.TopologySpec{Kind: "synth", Sites: 4, HostsPerSite: 32}
		}
		w := exp.NewWorld(opts)
		defer w.Close()
		if err := w.Boot(); err != nil {
			return err
		}
		var err error
		k.loop(40, 1, func(int) {
			res, e := w.Submit(mpd.JobSpec{Program: "hostname", N: 64, R: 1, Strategy: core.Spread, Timeout: time.Minute})
			if e == nil && res.Failures() > 0 {
				e = fmt.Errorf("%d slots failed", res.Failures())
			}
			if e != nil {
				err = e
			}
		})
		return err
	}},

	// mpi: collectives over 32 ranks on 4 sites.
	{Name: "mpi.allreduce_us_32", Unit: "us", Run: func(k *ksampler) error {
		return mpiKernel(k, 32, 200, 1, func(c *mpi.Comm) error {
			_, err := c.AllreduceF64([]float64{float64(c.Rank())}, mpi.OpSum)
			return err
		})
	}},
	{Name: "mpi.alltoall_us_32", Unit: "us", Run: func(k *ksampler) error {
		return mpiKernel(k, 32, 100, 1, func(c *mpi.Comm) error {
			parts := make([]mpi.Data, c.Size())
			for i := range parts {
				parts[i] = mpi.Data{Bytes: []byte{byte(i)}}
			}
			_, err := c.Alltoall(parts)
			return err
		})
	}},
	{Name: "mpi.sendrecv_ns", Unit: "ns", PerOp: 2, Run: func(k *ksampler) error {
		return mpiKernel(k, 2, 1000, 20, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, mpi.Data{Bytes: []byte{1}}); err != nil {
					return err
				}
				_, _, err := c.Recv(1, 0)
				return err
			}
			if _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
			return c.Send(0, 0, mpi.Data{Bytes: []byte{1}})
		})
	}},

	// sched, workload, stats, latency, grid: the open-system machinery.
	{Name: "sched.admit_ns", Unit: "ns", Allocs: "sched.admit_allocs", Run: func(k *ksampler) error {
		return inActor(func(s *vtime.Scheduler) error {
			sc := sched.New(s, instantSubmitter{}, nil, sched.Config{
				Workers: 4, QuotaRate: 30, QuotaBurst: 2000, Seed: 1,
			})
			sc.Start()
			spec := mpd.JobSpec{Program: "spin", N: 4, R: 1}
			var err error
			k.loop(1000, 64, func(ops int) {
				for i := 0; i < ops; i++ {
					sc.EnqueuePri(spec, i%8, i%2)
				}
				if _, e := sc.WaitTimeout(ops, time.Minute); e != nil {
					err = e
				}
			})
			sc.Close()
			return err
		})
	}},
	{Name: "workload.stream_ns_per_sub", Unit: "ns", Run: func(k *ksampler) error {
		st, err := workload.NewStream(workload.Config{
			Seed: 1, Arrival: workload.ArrivalSpec{Kind: workload.ArrivalWeekly, Peak: 2, Trough: 0.4},
			Tenants: 6, TenantSkew: -1, PriorityLevels: 2, Horizon: 168 * time.Hour,
			DeadlineFactors: []float64{6, 3},
		})
		if err != nil {
			return err
		}
		k.loop(1000, 100, func(ops int) {
			for i := 0; i < ops; i++ {
				if _, ok := st.Next(); !ok {
					err = errors.New("stream ran dry before 100k submissions")
					return
				}
			}
		})
		return err
	}},
	{Name: "stats.tdigest_add_ns", Unit: "ns", Run: func(k *ksampler) error {
		t := stats.NewDefaultTDigest()
		rng := rand.New(rand.NewSource(1))
		k.loop(1000, 1000, func(ops int) {
			for i := 0; i < ops; i++ {
				t.Add(rng.ExpFloat64())
			}
		})
		return nil
	}},
	{Name: "stats.tdigest_merge_us", Unit: "us", Run: func(k *ksampler) error {
		rng := rand.New(rand.NewSource(1))
		a, b := stats.NewDefaultTDigest(), stats.NewDefaultTDigest()
		for i := 0; i < 10000; i++ {
			a.Add(rng.ExpFloat64())
			b.Add(rng.NormFloat64())
		}
		k.loop(1000, 1, func(int) { a.Merge(b) })
		return nil
	}},
	{Name: "stats.tdigest_quantile_ns", Unit: "ns", Run: func(k *ksampler) error {
		rng := rand.New(rand.NewSource(1))
		t := stats.NewDefaultTDigest()
		for i := 0; i < 10000; i++ {
			t.Add(rng.ExpFloat64())
		}
		sink := 0.0
		k.loop(1000, 1000, func(ops int) {
			for i := 0; i < ops; i++ {
				sink += t.Quantile(0.99)
			}
		})
		if sink == 0 {
			return errors.New("quantile returned zero")
		}
		return nil
	}},
	{Name: "latency.observe_ns", Unit: "ns", Run: func(k *ksampler) error {
		tb := latency.NewTable(latency.KindLast, 0)
		peers := peerList(350)
		k.loop(1000, 350, func(ops int) {
			for i := 0; i < ops; i++ {
				tb.Observe(peers[i].ID, time.Duration(i)*time.Microsecond)
			}
		})
		return nil
	}},
	{Name: "grid.build_us_per_khost", Unit: "us", PerOp: 20, Run: func(k *ksampler) error {
		spec := grid.TopologySpec{Kind: "synth", Sites: 16, HostsPerSite: 1250}
		k.loop(30, 1, func(int) {
			if g := grid.Synthetic(spec); g.TotalHosts() != 20000 {
				panic("grid: wrong size")
			}
		})
		return nil
	}},
}
