package exp

import (
	"testing"

	"p2pmpi/internal/grid"
)

// Wall-clock sweep benchmarks: the engine-level microbenchmarks
// (vtime.BenchmarkEventThroughput, simnet.BenchmarkMessageDelivery) can
// look healthy while an experiment family rots through a slow layer
// between them, so the units CI actually cares about — one full sweep —
// are benchmarked too.

func scaleSweep2000Config() ScaleConfig {
	base, err := grid.ParseTopologySpec("synth:S=12,H=400")
	if err != nil {
		panic(err)
	}
	return ScaleConfig{Base: base, HostCounts: []int{2000}, N: 32}
}

// BenchmarkScaleSweep2000 runs the flagship beyond-the-paper workload:
// every registered strategy submitting on a freshly booted 2000-host
// synthetic world (the `gridbench -exp scale -hosts 2000` path).
func BenchmarkScaleSweep2000(b *testing.B) {
	cfg := scaleSweep2000Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ScaleSweep(DefaultOptions(42), cfg, DefaultWorkers()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnPresetPoint runs one survivability sweep point (the CI
// churn smoke shape): a small world under seeded failures, one MTBF ×
// replication coordinate, three spin jobs with the detector armed.
func BenchmarkChurnPresetPoint(b *testing.B) {
	cfg := goldenChurnConfig(b)
	cfg.Rs = []int{1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NemesisSweep(DefaultOptions(42), cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}
