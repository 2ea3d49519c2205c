package vtime

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The tests in this file pin what the driver model defines: actors are
// coroutines resumed by the goroutine inside Wait/RunFor/RunUntil, so
// panics, shutdown and outside callers meet the scheduler there.

func TestActorPanicSurfacesOnDriver(t *testing.T) {
	s := New()
	defer s.Shutdown()
	survivor := 0
	s.Go("bystander", func() {
		s.Sleep(time.Second)
		survivor++
	})
	s.Go("faulty-actor", func() {
		s.Sleep(time.Millisecond)
		panic("boom")
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"faulty-actor", "boom", "driver_test.go"} {
				if !strings.Contains(msg, want) {
					t.Errorf("recovered %q, want it to mention %q", msg, want)
				}
			}
		}()
		s.Wait()
		t.Error("Wait returned normally past a panicking actor")
	}()
	// The panic was recovered on the driving goroutine; the scheduler is
	// consistent and a new driver carries on with the other actors.
	if n := s.Actors(); n != 1 {
		t.Fatalf("%d live actors after the panic, want 1", n)
	}
	s.Wait()
	if survivor != 1 || s.Elapsed() != time.Second {
		t.Fatalf("bystander ran %d times, clock %v; want 1, 1s", survivor, s.Elapsed())
	}
}

func TestCallbackPanicSurfacesOnDriver(t *testing.T) {
	s := New()
	defer s.Shutdown()
	// The callback fires on the coroutine of whichever actor is parking.
	s.Go("parker", func() { s.Sleep(time.Second) })
	s.Schedule(time.Millisecond, func() { panic("bad callback") })
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "bad callback") {
			t.Fatalf("recovered %q", msg)
		}
	}()
	s.Wait()
	t.Fatal("Wait returned normally past a panicking callback")
}

// TestSecondWaitAndOutsideCallers holds the driver inside an actor (by
// blocking on a plain channel, which blocks the driver with it) and, from
// outside, starts a second Wait, a Go and a Queue.Push. The second Wait
// must not drive; the outside work must be picked up by the one driver.
func TestSecondWaitAndOutsideCallers(t *testing.T) {
	s := New()
	defer s.Shutdown()
	q := NewQueue[int](s)
	started, release := make(chan struct{}), make(chan struct{})
	holderDone, lateRan, got := false, false, 0
	s.Go("holder", func() {
		close(started)
		<-release
		s.Sleep(time.Millisecond)
		holderDone = true
	})
	s.Go("consumer", func() { got, _ = q.Pop() })

	driver := make(chan struct{})
	go func() { defer close(driver); s.Wait() }()
	<-started

	second := make(chan bool)
	go func() { s.Wait(); second <- holderDone && lateRan }()
	s.Go("late", func() { lateRan = true })
	q.Push(7)
	select {
	case <-second:
		t.Fatal("second Wait returned while the driver was still running")
	default:
	}
	close(release)
	<-driver
	if !<-second {
		t.Fatal("second Wait returned before the driver went idle")
	}
	if !holderDone || !lateRan || got != 7 {
		t.Fatalf("holderDone=%v lateRan=%v got=%d", holderDone, lateRan, got)
	}
}

func TestShutdownFromInsideActor(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	unwound, selfUnwound, after := 0, false, false
	for i := 0; i < 4; i++ {
		s.Go("parked", func() {
			defer func() { unwound++ }()
			q.Pop()
		})
	}
	s.Go("stopper", func() {
		defer func() { selfUnwound = true }()
		s.Sleep(time.Millisecond) // let the others park
		s.Go("never-started", func() { t.Error("ran after Shutdown") })
		s.Shutdown()
		if unwound != 4 {
			t.Errorf("%d/4 parked actors unwound when Shutdown returned", unwound)
		}
		s.Shutdown() // idempotent, also from here
		s.Sleep(time.Millisecond)
		after = true
	})
	s.Wait()
	if !selfUnwound || after {
		t.Fatalf("stopper: unwound=%v ran past its next park=%v", selfUnwound, after)
	}
	if n := s.Actors(); n != 0 {
		t.Fatalf("%d live actors after Shutdown", n)
	}
	s.Shutdown()
	s.Go("post", func() { t.Error("actor started on a stopped scheduler") })
	s.Wait()
}

// TestShutdownFromCallback: the callback runs on the coroutine of the
// actor that was parking when it came due; Shutdown must not try to stop
// the coroutine it is running on, and that actor must still unwind.
func TestShutdownFromCallback(t *testing.T) {
	s := New()
	unwound := 0
	for i := 0; i < 3; i++ {
		s.Go("sleeper", func() {
			defer func() { unwound++ }()
			s.Sleep(time.Second)
		})
	}
	s.Schedule(time.Millisecond, s.Shutdown)
	s.Wait()
	if unwound != 3 || s.Actors() != 0 {
		t.Fatalf("unwound %d/3, %d live actors", unwound, s.Actors())
	}
	if s.Spawned() != 3 { // a count of Go calls: finished and unwound actors stay in it
		t.Fatalf("Spawned = %d after three Go calls", s.Spawned())
	}
}
