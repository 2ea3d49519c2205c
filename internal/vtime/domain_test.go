package vtime

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestDomainSingleShardRuns: an n=1 domain is a thin wrapper over one
// scheduler — no workers, no lookahead requirement.
func TestDomainSingleShardRuns(t *testing.T) {
	d := NewDomain(1, 0)
	defer d.Shutdown()
	var fired []time.Duration
	s := d.Shard(0)
	s.Go("a", func() {
		for i := 0; i < 3; i++ {
			s.Sleep(10 * time.Millisecond)
			fired = append(fired, s.Elapsed())
		}
	})
	d.Wait()
	if len(fired) != 3 || fired[2] != 30*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

// TestOneShardDomainDispatchOrder: a one-shard domain is the sequential
// engine. The scripted mix of TestDispatchOrderPinned must produce the
// bare Scheduler's literal table whether the domain is pumped in RunFor
// tiles (fences falling between, on and after the events) or drained
// with Wait.
func TestOneShardDomainDispatchOrder(t *testing.T) {
	drivers := map[string]func(*Domain){
		"wait": func(d *Domain) { d.Wait() },
		"tiles": func(d *Domain) {
			for _, tile := range []time.Duration{2, 1, 4, 3, 5, 5, 10} {
				d.RunFor(tile * time.Millisecond)
			}
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			d := NewDomain(1, 0)
			defer d.Shutdown()
			got := spawnDispatchScript(d.Shard(0))
			drive(d)
			checkDispatchOrder(t, *got)
			if name == "wait" && d.Elapsed() != 20*time.Millisecond {
				t.Fatalf("Wait left the clock at %v, want the last event (20ms)", d.Elapsed())
			}
		})
	}
}

// TestOneShardDomainWindows: with no cross-shard delivery to be
// conservative about, a one-shard window is bounded by the fence and the
// next global event only — never by event timestamps (a zero lookahead
// must not cut one window per instant).
func TestOneShardDomainWindows(t *testing.T) {
	d := NewDomain(1, 0)
	defer d.Shutdown()
	s := d.Shard(0)
	ticks := 0
	s.Go("ticker", func() {
		for {
			s.Sleep(time.Millisecond)
			ticks++
		}
	})
	d.ScheduleGlobal(1500*time.Millisecond, func() {})
	d.ScheduleGlobal(2*time.Second, func() {}) // on a fence: no extra window
	for i := 0; i < 3; i++ {
		d.RunFor(time.Second)
	}
	if ticks != 3000 {
		t.Fatalf("ticks = %d, want 3000", ticks)
	}
	// Three tiles, one of them split by the mid-tile global.
	if got := d.Windows(); got != 4 {
		t.Fatalf("Windows() = %d over 3 RunFor calls and 1 mid-tile global, want 4 (3000 distinct timestamps ran)", got)
	}
	if d.SkippedWindows() != d.Windows() {
		t.Fatalf("%d of %d one-shard windows counted as run inline", d.SkippedWindows(), d.Windows())
	}
}

// TestOneShardDomainGlobalAfterShardEvents: a global stamped on an
// instant where shard events also fire runs after all of them, with the
// shard clock exactly on that instant; work it readies runs in the next
// window at the same instant.
func TestOneShardDomainGlobalAfterShardEvents(t *testing.T) {
	d := NewDomain(1, 0)
	defer d.Shutdown()
	s := d.Shard(0)
	const at = 10 * time.Millisecond
	var got []string
	rec := func(who string) { got = append(got, fmt.Sprintf("%v %s", s.Elapsed(), who)) }
	d.ScheduleGlobal(at, func() {
		rec("global")
		s.Schedule(0, func() { rec("readied") })
	})
	s.Schedule(at, func() {
		rec("cb")
		s.Schedule(0, func() { rec("cb child") })
	})
	s.Go("a", func() {
		s.Sleep(at)
		rec("actor")
	})
	d.RunFor(time.Second)
	want := []string{"10ms cb", "10ms actor", "10ms cb child", "10ms global", "10ms readied"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestDomainGlobalQueue pins the (at, seq) firing order of the global
// queue under scheduling from inside a global and from a shard
// callback, and that fired events leave nothing behind: the pending
// count drops to zero and no popped slot keeps its closure reachable.
func TestDomainGlobalQueue(t *testing.T) {
	d := NewDomain(1, 0)
	defer d.Shutdown()
	s := d.Shard(0)
	const ms = time.Millisecond
	var got []string
	global := func(name string, at time.Duration, then func()) {
		d.ScheduleGlobal(at, func() {
			got = append(got, fmt.Sprintf("%v %s", d.Elapsed(), name))
			if then != nil {
				then()
			}
		})
	}
	global("g3", 30*ms, nil)
	global("g1", 10*ms, func() {
		global("g1.same", 10*ms, nil) // same instant: after g2, which was queued first
		global("g1.past", 5*ms, nil)  // stamped in the past: fires at this barrier, ahead of g2
		global("g1.later", 12*ms, nil)
	})
	global("g2", 10*ms, nil)
	// From a shard callback inside the 12ms→30ms window: both are behind
	// the window's horizon by the time the barrier sees them, so they
	// fire there in (at, seq) order, ahead of g3.
	s.Schedule(20*ms, func() {
		global("s.25", 25*ms, nil)
		global("s.15", 15*ms, nil)
	})
	d.RunFor(40 * ms)
	want := []string{
		"10ms g1", "10ms g1.past", "10ms g2", "10ms g1.same", "12ms g1.later",
		"30ms s.15", "30ms s.25", "30ms g3",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firing order\n got %v\nwant %v", got, want)
	}
	if n := len(d.globals); n != 0 {
		t.Fatalf("%d globals still pending", n)
	}
	for i, ev := range d.globals[:cap(d.globals)] {
		if ev.fn != nil {
			t.Fatalf("popped slot %d still holds its closure", i)
		}
	}
}

// TestDomainZeroLookaheadPanics: a multi-shard domain with no positive
// lookahead has no sound window width.
func TestDomainZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain(2, 0) did not panic")
		}
	}()
	NewDomain(2, 0)
}

// TestDomainWindowedAdvance: shards advance in lockstep windows; after
// Wait, every shard clock sits at the domain clock, which covers the
// latest event.
func TestDomainWindowedAdvance(t *testing.T) {
	d := NewDomain(3, 5*time.Millisecond)
	defer d.Shutdown()
	ends := make([]time.Duration, 3)
	for i := 0; i < 3; i++ {
		i := i
		s := d.Shard(i)
		s.Go("w", func() {
			for j := 0; j <= i; j++ {
				s.Sleep(7 * time.Millisecond)
			}
			ends[i] = s.Elapsed()
		})
	}
	d.Wait()
	if ends[0] != 7*time.Millisecond || ends[1] != 14*time.Millisecond || ends[2] != 21*time.Millisecond {
		t.Fatalf("ends = %v", ends)
	}
	if got := d.Elapsed(); got < 21*time.Millisecond {
		t.Fatalf("domain clock %v behind the last event", got)
	}
	if d.Windows() == 0 {
		t.Fatal("no windows recorded")
	}
	for i := 0; i < 3; i++ {
		if got := d.Shard(i).Elapsed(); got != d.Elapsed() {
			t.Fatalf("shard %d parked at %v, domain at %v", i, got, d.Elapsed())
		}
	}
}

// TestDomainScheduleGlobal: a global event fires with every shard
// parked exactly at its timestamp, even when no shard has an event
// there; barrier callbacks run once per window.
func TestDomainScheduleGlobal(t *testing.T) {
	d := NewDomain(2, time.Millisecond)
	defer d.Shutdown()
	var at0, at1, domAt time.Duration
	d.ScheduleGlobal(13*time.Millisecond, func() {
		at0 = d.Shard(0).Elapsed()
		at1 = d.Shard(1).Elapsed()
		domAt = d.Elapsed()
	})
	var barriers int
	d.OnBarrier(func() { barriers++ })
	s := d.Shard(0)
	s.Go("busy", func() {
		for i := 0; i < 20; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	d.Wait()
	const want = 13 * time.Millisecond
	if at0 != want || at1 != want || domAt != want {
		t.Fatalf("global fired at shard0=%v shard1=%v dom=%v, want %v", at0, at1, domAt, want)
	}
	if barriers == 0 {
		t.Fatal("no barrier callbacks ran")
	}
}

// TestBarrierDrainsWhatGlobalsEmit: what a global event hands to the
// barrier callbacks (a crash closing connections puts FINs in the
// network's outboxes) drains at the barrier the event fired at, before
// the next window — here three seconds wide — is sized.
func TestBarrierDrainsWhatGlobalsEmit(t *testing.T) {
	d := NewDomain(2, time.Millisecond)
	defer d.Shutdown()
	emitted, drainedAt := false, time.Duration(-1)
	d.OnBarrier(func() {
		if emitted {
			emitted, drainedAt = false, d.Shard(1).Elapsed()
		}
	})
	d.ScheduleGlobal(time.Second, func() { emitted = true })
	d.Shard(0).Schedule(4*time.Second, func() {})
	d.Wait()
	if drainedAt != time.Second {
		t.Fatalf("a global event's emission at 1s drained at %v", drainedAt)
	}
}

// TestDomainRunFor: RunFor stops at the fence even with work left, and
// leaves every shard clock at the fence.
func TestDomainRunFor(t *testing.T) {
	d := NewDomain(2, 2*time.Millisecond)
	defer d.Shutdown()
	var count int
	s := d.Shard(1)
	s.Go("ticker", func() {
		for {
			s.Sleep(3 * time.Millisecond)
			count++
		}
	})
	d.RunFor(10 * time.Millisecond)
	if count != 3 { // ticks at 3, 6, 9
		t.Fatalf("count = %d after 10ms, want 3", count)
	}
	if d.Elapsed() != 10*time.Millisecond {
		t.Fatalf("domain clock %v, want 10ms", d.Elapsed())
	}
	for i := 0; i < 2; i++ {
		if got := d.Shard(i).Elapsed(); got != 10*time.Millisecond {
			t.Fatalf("shard %d at %v, want 10ms", i, got)
		}
	}
	d.RunFor(10 * time.Millisecond)
	if count != 6 { // 12, 15, 18
		t.Fatalf("count = %d after 20ms, want 6", count)
	}
}

// TestSchedulerNextEventAt: the window computation's view of a shard's
// earliest pending work.
func TestSchedulerNextEventAt(t *testing.T) {
	s := New()
	defer s.Shutdown()
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("idle scheduler reported an event")
	}
	s.Go("a", func() {
		s.Sleep(5 * time.Millisecond)
	})
	// The spawned actor is runnable right now.
	at, ok := s.NextEventAt()
	if !ok || at != 0 {
		t.Fatalf("NextEventAt = %v, %v; want 0, true", at, ok)
	}
	s.Wait()
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("drained scheduler reported an event")
	}
}
