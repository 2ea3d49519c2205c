// Faulttolerance: the paper's replication mechanism in action (§3.2).
// A 3-process job runs with replication degree r=2 on a small simulated
// grid; one hosting machine is killed mid-run, and the job still
// completes because every rank has a live replica on a distinct host —
// the guarantee enforced by the rank-assignment rule.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"p2pmpi"
	"p2pmpi/internal/simnet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	s := p2pmpi.NewScheduler()
	defer s.Shutdown()

	// Six hosts across two sites.
	hostSite := map[string]string{"frontal": "east"}
	var names []string
	for i := 0; i < 6; i++ {
		h := fmt.Sprintf("h%d", i)
		names = append(names, h)
		site := "east"
		if i >= 3 {
			site = "west"
		}
		hostSite[h] = site
	}
	net := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: 2 * time.Millisecond},
		simnet.DefaultConfig(11))

	// A program that works for a while, so the failure hits mid-run.
	programs := map[string]p2pmpi.Program{
		"slowhost": func(env *p2pmpi.Env) error {
			env.RT.Sleep(10 * time.Second)
			fmt.Fprintf(&env.Out, "%s survived", env.HostID)
			return nil
		},
	}

	sn := p2pmpi.NewSupernode(s, net.Node("frontal"), p2pmpi.SupernodeConfig{Addr: "frontal:8800"})
	mk := func(id string, p int) *p2pmpi.MPD {
		return p2pmpi.NewMPD(s, net.Node(id), p2pmpi.MPDConfig{
			Self: p2pmpi.PeerInfo{ID: id, Site: hostSite[id], MPDAddr: id + ":9000", RSAddr: id + ":9001"},
			P:    p,
			Seed: int64(p + len(id)),
			Shared: &p2pmpi.MPDShared{
				SupernodeAddr: "frontal:8800",
				Programs:      programs,
				PingInterval:  5 * time.Second,
			},
		})
	}
	front := mk("frontal", 0)
	var peers []*p2pmpi.MPD
	for _, h := range names {
		peers = append(peers, mk(h, 1))
	}

	var res *p2pmpi.JobResult
	var err error
	s.Go("main", func() {
		if e := sn.Start(); e != nil {
			err = e
			return
		}
		if e := front.Start(); e != nil {
			err = e
			return
		}
		for _, p := range peers {
			if e := p.Start(); e != nil {
				err = e
				return
			}
		}
		s.Sleep(15 * time.Second) // discovery + latency measurement

		fmt.Fprintln(w, "submitting: 3 ranks, replication degree 2 (6 processes)")
		s.Go("killer", func() {
			s.Sleep(5 * time.Second) // mid-run: the processes sleep for 10s
			fmt.Fprintln(w, "killing host h0 while the job runs...")
			net.FailHost("h0")
		})
		res, err = front.Submit(p2pmpi.JobSpec{
			Program:  "slowhost",
			N:        3,
			R:        2,
			Strategy: p2pmpi.Spread,
			Timeout:  3 * time.Minute,
		})
		// Stop every daemon so the virtual world can quiesce and Wait
		// below returns.
		sn.Close()
		front.Close()
		for _, p := range peers {
			p.Close()
		}
	})
	s.Wait()
	if err != nil {
		return fmt.Errorf("job failed entirely: %w", err)
	}

	fmt.Fprintf(w, "\njob finished; per-replica outcomes:\n")
	survivors := map[int]int{}
	for _, r := range res.Results {
		status := "LOST (host killed)"
		if r.OK {
			status = string(r.Output)
			survivors[r.Rank]++
		}
		fmt.Fprintf(w, "  rank %d replica %d: %s\n", r.Rank, r.Replica, status)
	}
	for rank := 0; rank < 3; rank++ {
		if survivors[rank] == 0 {
			return fmt.Errorf("rank %d lost all replicas — replication failed", rank)
		}
	}
	fmt.Fprintln(w, "\nevery rank kept at least one live replica: the application survives")
	return nil
}
