package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside: name, start, end, the span that caused it, and the workload
// point it belongs to. Offsets are relative to the recorder's origin.
type span struct {
	Name     string
	Workload string
	Point    int
	Parent   int // index into recorder.spans, -1 for a point root
	Start    time.Duration
	End      time.Duration
	// Counters holds the boundary samples of a traced run (work counts
	// and runtime.MemStats fields at span end); nil when tracing is off.
	Counters map[string]float64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// harnessPrefix marks spans that time the harness itself (forced GC,
// counter reads). They are excluded from point_wall_s.
const harnessPrefix = "harness."

// recorder keeps spans in memory; nothing is written until the run ends.
// The cheap path (traced == false) costs two time.Now calls per span and
// is what the end-to-end metrics are measured under.
type recorder struct {
	origin   time.Time
	workload string
	point    int
	traced   bool
	spans    []span
	stack    []int
	// harness is the total duration of outermost harness spans closed so
	// far; harnessAt[i] is its value when the i-th open span began. The
	// difference is the harness time inside a span, which end subtracts.
	harness   time.Duration
	harnessAt []time.Duration
	// harnessCPU is the process CPU burnt inside outermost harness spans
	// (forced GCs, twin boots); cpuAt is the reading when the open one
	// began. runPoint subtracts it from cpu_s.
	harnessCPU, cpuAt float64
	// sample, when tracing, reads the work counters visible at this
	// boundary (exported Stats() of the open world).
	sample func() map[string]float64
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Workload: r.workload, Point: r.point, Parent: parent,
		Start: time.Since(r.origin),
	})
	id := len(r.spans) - 1
	if strings.HasPrefix(name, harnessPrefix) && !r.inHarness() {
		r.cpuAt = cpuSeconds()
	}
	r.stack = append(r.stack, id)
	r.harnessAt = append(r.harnessAt, r.harness)
	return id
}

// inHarness reports whether an open span is a harness span.
func (r *recorder) inHarness() bool {
	for _, id := range r.stack {
		if strings.HasPrefix(r.spans[id].Name, harnessPrefix) {
			return true
		}
	}
	return false
}

// end closes the innermost span, which must be id, and returns its
// duration without the harness time spent inside it.
func (r *recorder) end(id int) time.Duration {
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
	inside := r.harness - r.harnessAt[len(r.harnessAt)-1]
	r.harnessAt = r.harnessAt[:len(r.harnessAt)-1]
	s := &r.spans[id]
	s.End = time.Since(r.origin)
	d := s.dur() - inside
	outer := !r.inHarness()
	if outer && strings.HasPrefix(s.Name, harnessPrefix) {
		r.harness += d
		r.harnessCPU += cpuSeconds() - r.cpuAt
	}
	if r.traced {
		// Reading the counters is harness time: it is charged to a
		// sibling harness span, so the layer span's duration stays honest
		// and the parent's self time does not absorb the read.
		c := r.boundary()
		r.spans[id].Counters = c
		sample := span{
			Name: harnessPrefix + "sample", Workload: r.workload, Point: r.point,
			Parent: r.spans[id].Parent, Start: r.spans[id].End, End: time.Since(r.origin),
		}
		r.spans = append(r.spans, sample)
		if outer {
			r.harness += sample.dur()
		}
	}
	return d
}

// do times fn as one span.
func (r *recorder) do(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// boundary samples runtime.MemStats and the world's work counters.
func (r *recorder) boundary() map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := map[string]float64{
		"mem.heap_alloc_b":   float64(ms.HeapAlloc),
		"mem.total_alloc_b":  float64(ms.TotalAlloc),
		"mem.mallocs":        float64(ms.Mallocs),
		"mem.num_gc":         float64(ms.NumGC),
		"mem.pause_total_ns": float64(ms.PauseTotalNs),
	}
	if r.sample != nil {
		for k, v := range r.sample() {
			out[k] = v
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// pointWall sums the self times of every span of one point that is
// neither a harness span nor under one: the wall clock from the first
// NewWorld to Close returning, without the harness's own forced GCs,
// counter reads and twin boots.
func pointWall(spans []span, point int) time.Duration {
	self := selfTimes(spans)
	harness := make([]bool, len(spans))
	var sum time.Duration
	for i, s := range spans {
		// A parent always precedes its children in the slice.
		harness[i] = strings.HasPrefix(s.Name, harnessPrefix) || (s.Parent >= 0 && harness[s.Parent])
		if s.Point == point && !harness[i] {
			sum += self[i]
		}
	}
	return sum
}

// chromeEvent is one record of the Chrome trace-event format
// (chrome://tracing, Perfetto): complete events ("ph":"X") with
// microsecond timestamps. The causing span and the boundary counters
// ride in args.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans of one traced run.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload, "point": s.Point}
		for k, v := range s.Counters {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Point + 1, Args: args,
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
