package exp

import (
	"runtime"
	"sync"
	"time"

	"p2pmpi/internal/mpd"
)

// DefaultWorkers returns the default parallelism of the sweep pool.
func DefaultWorkers() int { return runtime.NumCPU() }

// runPool runs fn(i) for every i in [0, n) on at most workers OS
// goroutines and returns the first error. Each task owns an independent
// virtual-time world, so OS-level parallelism cannot perturb results:
// outputs are written into index i of the caller's slice and are
// byte-identical whatever the worker count.
func runPool(n, workers int, fn func(i int) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// submitPumped runs fn as an actor on the world's scheduler and pumps
// the virtual clock one second at a time until fn finishes or the
// budget of virtual seconds is exhausted.
func submitPumped[T any](w *World, budget int, name string, fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	w.S.Go(name, func() {
		v, err := fn()
		ch <- outcome{v, err}
	})
	for i := 0; i < budget; i++ {
		w.RunFor(time.Second)
		select {
		case o := <-ch:
			return o.v, o.err
		default:
		}
	}
	var zero T
	return zero, ErrPumpExhausted
}

// Compile-time check that *mpd.MPD keeps satisfying the scheduler's
// submitter contract used by the concurrent experiments.
var _ interface {
	Submit(mpd.JobSpec) (*mpd.JobResult, error)
} = (*mpd.MPD)(nil)
