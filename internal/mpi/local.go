package mpi

import (
	"fmt"
	"sync"

	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// RunLocal executes fn as n unreplicated MPI processes against the given
// network, all listening on host at consecutive ports from basePort. It
// is the quickest way to run an MPI program without the middleware: over
// vtime.Real and transport.TCP it runs n goroutines on localhost; over a
// scheduler and simnet it runs in virtual time. Each collective runs its
// one fixed schedule (see the package doc).
//
// Under a virtual-time runtime RunLocal must be called from an actor (it
// blocks on a runtime mailbox). It returns one error slot per rank. The
// first rank to fail — its Join included — aborts the run: every other
// Comm is closed, so no rank waits forever on a message the failed one
// will never send.
func RunLocal(rt vtime.Runtime, net transport.Network, host string, basePort, n int,
	fn func(c *Comm) error) []error {

	slots := make([]Slot, n)
	for i := 0; i < n; i++ {
		slots[i] = Slot{
			Rank: i, Replica: 0, Global: i,
			HostID: host,
			Addr:   fmt.Sprintf("%s:%d", host, basePort+i),
		}
	}
	type done struct {
		rank int
		err  error
	}
	mb := rt.NewMailbox()
	var mu sync.Mutex
	comms := make([]*Comm, n) // closed by the first failure
	failed := false
	for i := 0; i < n; i++ {
		slot := slots[i]
		rt.Go(fmt.Sprintf("mpi.local.r%d", slot.Rank), func() {
			c, err := Join(Config{
				Self: slot, Slots: slots, N: n, R: 1,
				Net: net, RT: rt,
			})
			if err != nil {
				mb.Push(done{rank: slot.Rank, err: err})
				return
			}
			defer c.Close()
			mu.Lock()
			comms[slot.Rank] = c
			if failed {
				c.Close()
			}
			mu.Unlock()
			defer func() {
				if r := recover(); r != nil {
					mb.Push(done{rank: slot.Rank, err: fmt.Errorf("panic: %v", r)})
				}
			}()
			mb.Push(done{rank: slot.Rank, err: fn(c)})
		})
	}
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		v, ok := mb.Pop()
		if !ok {
			break
		}
		d := v.(done)
		errs[d.rank] = d.err
		if d.err != nil {
			mu.Lock()
			failed = true
			for _, c := range comms {
				if c != nil {
					c.Close()
				}
			}
			mu.Unlock()
		}
	}
	return errs
}
