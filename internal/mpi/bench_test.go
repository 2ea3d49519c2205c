package mpi

import (
	"fmt"
	"testing"
	"time"

	"p2pmpi/internal/simnet"
	"p2pmpi/internal/vtime"
)

// BenchmarkAllreduce8 measures wall cost of a full 8-rank allreduce
// round (simulator + library overhead; virtual time is free).
func BenchmarkAllreduce8(b *testing.B) {
	benchCollective(b, 8, func(c *Comm) error {
		_, err := c.AllreduceF64([]float64{float64(c.Rank())}, OpSum)
		return err
	})
}

// BenchmarkAlltoall8 measures an 8-rank pairwise exchange round.
func BenchmarkAlltoall8(b *testing.B) {
	benchCollective(b, 8, func(c *Comm) error {
		parts := make([]Data, c.Size())
		for i := range parts {
			parts[i] = Data{Bytes: []byte{byte(i)}}
		}
		_, err := c.Alltoall(parts)
		return err
	})
}

// BenchmarkSendRecvPair measures one message hop between two ranks.
func BenchmarkSendRecvPair(b *testing.B) {
	s := vtime.New()
	defer s.Shutdown()
	net := simnet.New(s, &simnet.StaticTopology{
		HostSite: map[string]string{"hub": "x"},
		DefLat:   100 * time.Microsecond,
	}, simnet.Config{Seed: 3, NICBps: 1e9})

	s.Go("world", func() {
		errs := RunLocal(s, net.Node("hub"), "hub", 47000, 2,
			func(c *Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						if err := c.Send(1, 0, Data{Bytes: []byte{1}}); err != nil {
							return err
						}
						if _, _, err := c.Recv(1, 0); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < b.N; i++ {
					if _, _, err := c.Recv(0, 0); err != nil {
						return err
					}
					if err := c.Send(0, 0, Data{Bytes: []byte{1}}); err != nil {
						return err
					}
				}
				return nil
			})
		for rank, err := range errs {
			if err != nil {
				b.Errorf("rank %d: %v", rank, err)
			}
		}
	})
	b.ResetTimer()
	s.Wait()
}

func benchCollective(b *testing.B, n int, op func(c *Comm) error) {
	b.Helper()
	s := vtime.New()
	defer s.Shutdown()
	hostSite := make(map[string]string)
	for i := 0; i < n; i++ {
		hostSite[fmt.Sprintf("h%d", i)] = "x"
	}
	net := simnet.New(s, &simnet.StaticTopology{HostSite: hostSite, DefLat: 100 * time.Microsecond},
		simnet.Config{Seed: 4, NICBps: 1e9})

	s.Go("world", func() {
		slots := make([]Slot, n)
		for i := range slots {
			h := fmt.Sprintf("h%d", i)
			slots[i] = Slot{Rank: i, Global: i, HostID: h, Addr: fmt.Sprintf("%s:%d", h, 47100+i)}
		}
		mb := s.NewMailbox()
		for i := 0; i < n; i++ {
			slot := slots[i]
			s.Go("rank", func() {
				c, err := Join(Config{Self: slot, Slots: slots, N: n, R: 1,
					Net: net.Node(slot.HostID), RT: s})
				if err != nil {
					mb.Push(err)
					return
				}
				defer c.Close()
				for it := 0; it < b.N; it++ {
					if err := op(c); err != nil {
						mb.Push(err)
						return
					}
				}
				mb.Push(nil)
			})
		}
		for i := 0; i < n; i++ {
			if v, _ := mb.Pop(); v != nil {
				b.Errorf("rank failed: %v", v)
			}
		}
	})
	b.ResetTimer()
	s.Wait()
}
