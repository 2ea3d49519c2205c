package vtime

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// gate re-times body via testing.Benchmark and fails if it regressed
// more than 2x against key in the committed baseline (perf/BASELINE.json,
// pointed to by PERF_GATE_BASELINE; unset skips the test). The 2x bar is
// deliberately loose — it absorbs runner-hardware variance while still
// catching what costs integer multiples.
func gate(t *testing.T, key string, body func(b *testing.B)) {
	path := os.Getenv("PERF_GATE_BASELINE")
	if path == "" {
		t.Skip("PERF_GATE_BASELINE not set (CI sets it to perf/BASELINE.json)")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline map[string]any
	if err := json.Unmarshal(blob, &baseline); err != nil {
		t.Fatal(err)
	}
	base, _ := baseline[key].(float64)
	if base <= 0 {
		t.Fatalf("baseline %s has no %s", path, key)
	}
	r := testing.Benchmark(body)
	got := float64(r.T.Nanoseconds()) / float64(r.N)
	t.Logf("%s: %.1f ns/op (baseline %.1f, limit %.1f)", key, got, base, 2*base)
	if got > 2*base {
		t.Fatalf("%s regressed: %.1f ns/op > 2x baseline %.1f ns/op", key, got, base)
	}
}

// TestEventThroughputGate is the benchstat-style CI smoke for the
// per-event path (the BenchmarkEventThroughput body): it catches
// accidentally reintroducing a coroutine switch, allocation or lock
// round-trip where a parking actor resumes itself inline.
func TestEventThroughputGate(t *testing.T) {
	gate(t, "event_throughput_ns_per_op", func(b *testing.B) {
		s := New()
		defer s.Shutdown()
		s.Go("ticker", func() {
			for i := 0; i < b.N; i++ {
				s.Sleep(time.Millisecond)
			}
		})
		b.ResetTimer()
		s.Wait()
	})
}

// TestActorHandoffGate is the same smoke for a control transfer between
// two actors (the BenchmarkActorPingPong body): two coroutine switches
// through the driver. It catches a hand-off that goes back through the
// Go scheduler's run queue — a channel or cond wake — or allocates.
func TestActorHandoffGate(t *testing.T) {
	gate(t, "actor_handoff_ns_per_op", func(b *testing.B) {
		s := New()
		defer s.Shutdown()
		pingPong(s, b.N)
		b.ResetTimer()
		s.Wait()
	})
}
