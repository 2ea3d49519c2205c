package vtime

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw discrete-event processing: one
// actor sleeping through b.N virtual ticks.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	defer s.Shutdown()
	s.Go("ticker", func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	s.Wait()
}

// BenchmarkQueueHandoff measures producer/consumer hand-offs between two
// actors.
func BenchmarkQueueHandoff(b *testing.B) {
	s := New()
	defer s.Shutdown()
	q := NewQueue[int](s)
	s.Go("producer", func() {
		for i := 0; i < b.N; i++ {
			q.Push(i)
		}
	})
	s.Go("consumer", func() {
		for i := 0; i < b.N; i++ {
			if _, ok := q.Pop(); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	s.Wait()
}

// BenchmarkActorSpawn measures Go+exit cost for short-lived actors.
func BenchmarkActorSpawn(b *testing.B) {
	s := New()
	defer s.Shutdown()
	s.Go("spawner", func() {
		for i := 0; i < b.N; i++ {
			s.Go("child", func() {})
			s.Yield()
		}
	})
	b.ResetTimer()
	s.Wait()
}

// BenchmarkQueueHandoff above never switches actors per op: the producer
// pushes b.N items without blocking. The two benchmarks below move
// control between actors on every op, which is what an MPI rank waiting
// on its peers does.

// pingPong bounces one token between two actors over two queues: one
// real control transfer per op.
func pingPong(s *Scheduler, n int) {
	ping, pong := NewQueue[int](s), NewQueue[int](s)
	s.Go("ping", func() {
		for i := 0; i < n; i += 2 {
			ping.Push(i)
			pong.Pop()
		}
	})
	s.Go("pong", func() {
		for i := 0; i < n; i += 2 {
			ping.Pop()
			pong.Push(i)
		}
	})
}

// BenchmarkActorPingPong measures one actor-to-actor control transfer.
func BenchmarkActorPingPong(b *testing.B) {
	s := New()
	defer s.Shutdown()
	pingPong(s, b.N)
	b.ResetTimer()
	s.Wait()
}

var ringSink uint64

// BenchmarkActorRing128 passes a token round a ring of 128 actors, each
// doing about a microsecond of work before the next hop: the cache and
// thread-wake picture of a loosely synchronous exchange phase, where a
// hand-off that wakes an idle thread costs more than it does back to back.
func BenchmarkActorRing128(b *testing.B) {
	const ring = 128
	s := New()
	defer s.Shutdown()
	qs := make([]*Queue[uint64], ring)
	for i := range qs {
		qs[i] = NewQueue[uint64](s)
	}
	for i := range qs {
		in, out := qs[i], qs[(i+1)%ring]
		s.Go("ring", func() {
			for {
				x, ok := in.Pop()
				if !ok {
					return
				}
				if x == 0 {
					for _, q := range qs {
						q.Close()
					}
					return
				}
				h := x
				for k := 0; k < 800; k++ { // ~1 µs
					h = h*6364136223846793005 + 1442695040888963407
				}
				ringSink += h
				out.Push(x - 1)
			}
		})
	}
	qs[0].Push(uint64(b.N))
	b.ResetTimer()
	s.Wait()
}
