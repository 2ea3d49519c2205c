package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// DefaultWorkers returns the default parallelism of the sweep pool.
func DefaultWorkers() int { return runtime.NumCPU() }

// sweep runs at on every coordinate, on at most workers OS goroutines,
// and returns the results in coordinate order. A failing coordinate
// fails the sweep: its error comes back wrapped with the coordinate (the
// first in coordinate order, if several fail). Each coordinate owns an
// independent virtual-time world, so OS-level parallelism cannot
// perturb results: they are byte-identical whatever the worker count.
func sweep[C, R any](coords []C, workers int, at func(C) (R, error)) ([]R, error) {
	out := make([]R, len(coords))
	errs := make([]error, len(coords))
	sem := make(chan struct{}, min(max(workers, 1), len(coords)))
	var wg sync.WaitGroup
	for i, c := range coords {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			out[i], errs[i] = at(c)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("point %+v: %w", coords[i], err)
		}
	}
	return out, nil
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
