package mpd

import (
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/overlay"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/simnet"
	"p2pmpi/internal/vtime"
)

// TestSupernodeFailover: with the primary supernode dead, peers bootstrap
// through the configured fallback and jobs still run.
func TestSupernodeFailover(t *testing.T) {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	hostSite := map[string]string{
		"sn1": "east", "sn2": "east", "frontal": "east",
		"p1": "east", "p2": "east",
	}
	net := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: time.Millisecond},
		simnet.Config{Seed: 13, NICBps: 1e9})

	// Only the fallback supernode actually runs.
	sn2 := overlay.NewSupernode(s, net.Node("sn2"), overlay.SupernodeConfig{Addr: "sn2:8800"})

	mk := func(id string, p int) *MPD {
		return New(s, net.Node(id), Config{
			Self: proto.PeerInfo{ID: id, Site: "east",
				MPDAddr: id + ":9000", RSAddr: id + ":9001"},
			P:    p,
			Seed: int64(len(id)),
			Shared: &Shared{
				SupernodeAddr:      "sn1:8800", // dead primary
				SupernodeFallbacks: []string{"sn2:8800"},
				Programs:           programs(),
				PingInterval:       5 * time.Second,
				ReserveTimeout:     time.Second,
			},
		})
	}
	front := mk("frontal", 0)
	peers := []*MPD{mk("p1", 2), mk("p2", 2)}

	var res *JobResult
	var err error
	s.Go("main", func() {
		defer func() {
			sn2.Close()
			front.Close()
			for _, p := range peers {
				p.Close()
			}
		}()
		if e := sn2.Start(); e != nil {
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
		s.Sleep(20 * time.Second) // registration via fallback + pings
		res, err = front.Submit(JobSpec{
			Program: "hostname", N: 3, R: 1, Strategy: core.Spread,
			Timeout: time.Minute,
		})
	})
	s.Wait()
	if err != nil {
		t.Fatalf("job via fallback supernode: %v", err)
	}
	if res.Failures() != 0 || len(res.Results) != 3 {
		t.Fatalf("results: %+v", res.Results)
	}
}
