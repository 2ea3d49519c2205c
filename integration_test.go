package p2pmpi

// End-to-end integration over real TCP on localhost: the same daemons,
// protocol and MPI library that the virtual-time experiments use, but on
// OS sockets and the wall clock — the mpiboot / p2pmpirun deployment of
// the paper in miniature.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2pmpi/internal/mpd"
	"p2pmpi/internal/mpi"
	"p2pmpi/internal/nas"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// loopbackPorts returns the first of n fresh consecutive loopback ports,
// all below Linux's ephemeral range (32768–60999) and below the peers'
// proc-port windows (22000+). A port in the ephemeral range can be
// taken by some outbound connection's source port between the pick and
// the Listen; here nothing but these tests binds.
func loopbackPorts(n int) int {
	return 20000 + int(nextLoopbackPort.Add(int32(n))-int32(n))%1900
}

var nextLoopbackPort atomic.Int32

func tcpPrograms() map[string]mpd.Program {
	progs := map[string]mpd.Program{
		"hostname": mpd.Hostname,
		"ep-tiny": func(env *mpd.Env) error {
			c, err := env.Comm()
			if err != nil {
				return err
			}
			lo := int64(env.Rank) * (1 << 14) / int64(env.Size)
			hi := int64(env.Rank+1) * (1 << 14) / int64(env.Size)
			r := nas.EPChunk(lo, hi)
			sums, err := c.AllreduceF64([]float64{r.Sx, r.Sy}, mpi.OpSum)
			if err != nil {
				return err
			}
			fmt.Fprintf(&env.Out, "%.6f %.6f", sums[0], sums[1])
			return nil
		},
		"is-T": nas.ISProgram(nas.ISClassT),
	}
	// ep-T is ep-tiny after a second's pause: long enough for the
	// heartbeat and failure detector of a replicated job to tick beside
	// its rank threads.
	progs["ep-T"] = func(env *mpd.Env) error {
		env.RT.Sleep(time.Second)
		return progs["ep-tiny"](env)
	}
	return progs
}

// tcpWorld boots a supernode + k peers + submitter over localhost TCP.
type tcpWorld struct {
	sn        *overlay.Supernode
	peers     []*mpd.MPD
	submitter *mpd.MPD
}

func newTCPWorld(t *testing.T, k, p int) *tcpWorld {
	t.Helper()
	rt := vtime.Real{}
	tcp := transport.TCP{}

	snAddr := fmt.Sprintf("127.0.0.1:%d", loopbackPorts(1))
	w := &tcpWorld{}
	w.sn = overlay.NewSupernode(rt, tcp, overlay.SupernodeConfig{Addr: snAddr})
	if err := w.sn.Start(); err != nil {
		t.Fatalf("supernode: %v", err)
	}
	t.Cleanup(w.sn.Close)

	mk := func(id string, pLimit, procBase int) *mpd.MPD {
		d := mpd.New(rt, tcp, mpd.Config{
			Self: proto.PeerInfo{
				ID: id, Site: "local",
				MPDAddr: fmt.Sprintf("127.0.0.1:%d", loopbackPorts(1)),
				RSAddr:  fmt.Sprintf("127.0.0.1:%d", loopbackPorts(1)),
			},
			P:    pLimit,
			Seed: int64(len(id)),
			Shared: &mpd.Shared{
				SupernodeAddr: snAddr,
				Programs:      tcpPrograms(),
				// Tight loops so the world converges within test time: all
				// daemons boot concurrently and discover each other through
				// the refresh cycle.
				PingInterval:    300 * time.Millisecond,
				RefreshInterval: 500 * time.Millisecond,
				ReserveTimeout:  2 * time.Second,
				ProcBasePort:    procBase,
			},
		})
		if err := d.Start(); err != nil {
			t.Fatalf("mpd %s: %v", id, err)
		}
		t.Cleanup(d.Close)
		return d
	}
	// Distinct proc-port windows per peer, since all share 127.0.0.1,
	// and all of them below Linux's ephemeral range (32768–60999): ports
	// there are what every outbound connection's source port is drawn
	// from, so a slot port in it can be taken already.
	for i := 0; i < k; i++ {
		w.peers = append(w.peers, mk(fmt.Sprintf("peer%02d", i), p, 22000+i*500))
	}
	w.submitter = mk("submitter", 0, 29000)

	// Let registrations and a ping round settle on the wall clock.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if w.submitter.Cache().Size() == k {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := w.submitter.Cache().Size(); got != k {
		t.Fatalf("submitter cache has %d peers, want %d", got, k)
	}
	time.Sleep(500 * time.Millisecond) // one ping round for latencies
	return w
}

func TestTCPHostnameJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and wall-clock sleeps")
	}
	w := newTCPWorld(t, 3, 2)
	res, err := w.submitter.Submit(mpd.JobSpec{
		Program: "hostname", N: 4, R: 1, Strategy: Spread,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 0 || len(res.Results) != 4 {
		t.Fatalf("results: %+v", res.Results)
	}
	hosts := map[string]int{}
	for _, r := range res.Results {
		if !strings.HasPrefix(string(r.Output), "peer") {
			t.Fatalf("output %q", r.Output)
		}
		hosts[string(r.Output)]++
	}
	// Spread over 3 peers with P=2: 4 = 2+1+1.
	if len(hosts) != 3 {
		t.Fatalf("spread used %d hosts: %v", len(hosts), hosts)
	}
}

func TestTCPMPIProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and wall-clock sleeps")
	}
	w := newTCPWorld(t, 3, 2)
	res, err := w.submitter.Submit(mpd.JobSpec{
		Program: "ep-tiny", N: 4, R: 1, Strategy: Concentrate,
		Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 0 {
		t.Fatalf("failures: %+v", res.Results)
	}
	// Every rank reports the same globally-reduced sums, equal to the
	// sequential computation.
	whole := nas.EPChunk(0, 1<<14)
	want := fmt.Sprintf("%.6f %.6f", whole.Sx, whole.Sy)
	for _, r := range res.Results {
		if string(r.Output) != want {
			t.Fatalf("rank %d output %q, want %q", r.Rank, r.Output, want)
		}
	}
}

// TestTCPReplicatedJob runs a replicated job (N = 2, R = 2) over real
// sockets. Each replica's heartbeat and failure detector tick on timer
// goroutines beside its rank thread and the TCP reader goroutines, so
// under -race this checks that everything they share stays under the
// Comm's lock. Backups compute too: every replica reports the sums.
func TestTCPReplicatedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and wall-clock sleeps")
	}
	w := newTCPWorld(t, 3, 2)
	res, err := w.submitter.Submit(mpd.JobSpec{
		Program: "ep-T", N: 2, R: 2, Strategy: Spread,
		Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 0 || len(res.Results) != 4 {
		t.Fatalf("results: %+v", res.Results)
	}
	whole := nas.EPChunk(0, 1<<14)
	want := fmt.Sprintf("%.6f %.6f", whole.Sx, whole.Sy)
	for _, r := range res.Results {
		if string(r.Output) != want {
			t.Fatalf("rank %d replica %d output %q, want %q", r.Rank, r.Replica, r.Output, want)
		}
	}
}

func TestTCPISKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and wall-clock sleeps")
	}
	w := newTCPWorld(t, 3, 2)
	res, err := w.submitter.Submit(mpd.JobSpec{
		Program: "is-T", N: 3, R: 1, Strategy: Spread,
		Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Failures() != 0 {
		t.Fatalf("failures: %+v", res.Results)
	}
	for _, r := range res.Results {
		if !strings.Contains(string(r.Output), "verified") {
			t.Fatalf("rank %d output %q", r.Rank, r.Output)
		}
	}
}

func TestTCPTransportFraming(t *testing.T) {
	// Direct transport-level check: big frames, virtual sizes, timeouts.
	tcp := transport.TCP{}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		if len(m.Payload) != 1<<20 || m.Virtual != 777 {
			done <- fmt.Errorf("got %d bytes virtual %d", len(m.Payload), m.Virtual)
			return
		}
		if err := c.Send(transport.Message{Payload: []byte("ack")}); err != nil {
			done <- err
			return
		}
		_, err = c.Recv() // hold the conn open until the client closes
		done <- nil
		_ = err
	}()

	c, err := tcp.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Send(transport.Message{Payload: big, Virtual: 777}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.RecvTimeout(5 * time.Second)
	if err != nil || string(reply.Payload) != "ack" {
		t.Fatalf("reply %q err %v", reply.Payload, err)
	}
	// Timeout path: the server is holding the conn open, silent.
	if _, err := c.RecvTimeout(50 * time.Millisecond); err != transport.ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	c.Close() // unblocks the server's final Recv
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	tcp := transport.TCP{}
	if _, err := tcp.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestFacadeRunLocalRealTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	errs := RunLocal(RealRuntime(), TCPNetwork(), "127.0.0.1", loopbackPorts(4), 4,
		func(c *Comm) error {
			sum, err := c.AllreduceF64([]float64{float64(c.Rank())}, OpSum)
			if err != nil {
				return err
			}
			if sum[0] != 6 {
				return fmt.Errorf("sum = %v", sum[0])
			}
			return nil
		})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
