// Package latency implements the peer latency bookkeeping of the MPD
// cache: round-trip samples from application-level pings feed an
// estimator, and the estimate orders the cached peer list before
// reservation (paper §4.1).
//
// The paper measures RTT with a single application-level echo and notes
// that accuracy "may differ from the RTT given by an ICMP echo" and is
// "subject to CPU and TCP load variations"; improving it is listed as
// future work. This package therefore ships a family of estimators
// (last sample, sliding mean, EWMA, sliding median, sliding minimum) and
// a ranking-quality harness (Kendall tau against the true latency order)
// used by the estimator study (exp.EstimatorStudy).
package latency

import (
	"fmt"
	"sort"
	"time"
)

// Estimator condenses a stream of RTT samples into one current estimate.
type Estimator interface {
	// Add records one round-trip sample.
	Add(rtt time.Duration)
	// Estimate returns the current estimate; Unknown if no sample yet.
	Estimate() time.Duration
	// Samples returns how many samples were recorded.
	Samples() int
}

// Unknown is returned by estimators before their first sample. It sorts
// after every real latency.
const Unknown = time.Duration(1<<63 - 1)

// Kind names an estimator family for configuration and ablations.
type Kind string

// The available estimator kinds.
const (
	KindLast   Kind = "last"   // most recent sample (the paper's behaviour)
	KindMean   Kind = "mean"   // sliding-window mean
	KindEWMA   Kind = "ewma"   // exponentially weighted moving average
	KindMedian Kind = "median" // sliding-window median
	KindMin    Kind = "min"    // sliding-window minimum
)

// Kinds lists every estimator family in a stable order.
var Kinds = []Kind{KindLast, KindMean, KindEWMA, KindMedian, KindMin}

// New constructs an estimator of the given kind. Window is the sample
// window for windowed kinds (≤ 0 means 8); EWMA uses alpha = 2/(window+1).
func New(kind Kind, window int) (Estimator, error) {
	if window <= 0 {
		window = 8
	}
	switch kind {
	case KindLast:
		return &lastEstimator{}, nil
	case KindMean:
		return &windowEstimator{window: window, reduce: reduceMean}, nil
	case KindEWMA:
		return &ewmaEstimator{alpha: 2.0 / float64(window+1)}, nil
	case KindMedian:
		return &windowEstimator{window: window, reduce: reduceMedian}, nil
	case KindMin:
		return &windowEstimator{window: window, reduce: reduceMin}, nil
	default:
		return nil, fmt.Errorf("latency: unknown estimator kind %q", kind)
	}
}

// MustNew is New for static configuration; it panics on error.
func MustNew(kind Kind, window int) Estimator {
	e, err := New(kind, window)
	if err != nil {
		panic(err)
	}
	return e
}

type lastEstimator struct {
	last time.Duration
	n    int
}

func (e *lastEstimator) Add(rtt time.Duration) { e.last = rtt; e.n++ }
func (e *lastEstimator) Estimate() time.Duration {
	if e.n == 0 {
		return Unknown
	}
	return e.last
}
func (e *lastEstimator) Samples() int { return e.n }

type ewmaEstimator struct {
	alpha float64
	cur   float64
	n     int
}

func (e *ewmaEstimator) Add(rtt time.Duration) {
	if e.n == 0 {
		e.cur = float64(rtt)
	} else {
		e.cur = e.alpha*float64(rtt) + (1-e.alpha)*e.cur
	}
	e.n++
}

func (e *ewmaEstimator) Estimate() time.Duration {
	if e.n == 0 {
		return Unknown
	}
	return time.Duration(e.cur)
}
func (e *ewmaEstimator) Samples() int { return e.n }

type windowEstimator struct {
	window int
	buf    []time.Duration
	head   int
	n      int
	reduce func([]time.Duration) time.Duration
}

func (e *windowEstimator) Add(rtt time.Duration) {
	if len(e.buf) < e.window {
		e.buf = append(e.buf, rtt)
	} else {
		e.buf[e.head] = rtt
		e.head = (e.head + 1) % e.window
	}
	e.n++
}

func (e *windowEstimator) Estimate() time.Duration {
	if len(e.buf) == 0 {
		return Unknown
	}
	return e.reduce(e.buf)
}
func (e *windowEstimator) Samples() int { return e.n }

func reduceMean(buf []time.Duration) time.Duration {
	var sum time.Duration
	for _, v := range buf {
		sum += v
	}
	return sum / time.Duration(len(buf))
}

func reduceMedian(buf []time.Duration) time.Duration {
	tmp := append([]time.Duration(nil), buf...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	m := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[m]
	}
	return (tmp[m-1] + tmp[m]) / 2
}

func reduceMin(buf []time.Duration) time.Duration {
	minV := buf[0]
	for _, v := range buf[1:] {
		if v < minV {
			minV = v
		}
	}
	return minV
}

// Sample is one peer's estimator state, held inline in the record of
// whoever tracks the peer (a Table, an overlay cache's peer record): the
// latest round trip itself for KindLast, the paper's estimator, so a
// tracked peer costs eight bytes and no heap object; for the other kinds
// the number of a heap estimator its Table keeps. The zero Sample holds
// no sample. A Sample is only meaningful to the Table that wrote it.
type Sample struct{ v int64 }

// Table tracks one estimator per peer and produces the latency-sorted
// peer ordering the booking step consumes. It is also the codec of the
// Samples an owner keeps inline: Add, Value and Clear read and write
// them, and the heap estimators of the windowed kinds live here.
type Table struct {
	kind   Kind
	window int
	heap   *estimators // made on the first sample of a kind a Sample cannot hold
	peers  map[string]Sample
}

// estimators holds a Table's heap estimators; Sample.v is a position+1.
type estimators struct {
	all   []Estimator
	spare []int32 // positions of cleared estimators, reused first
}

// NewTable creates a table producing estimators of the given kind. The
// peer map is built on first sample — a table that never observes
// stays a few words.
func NewTable(kind Kind, window int) *Table {
	return &Table{kind: kind, window: window}
}

// MakeTable is NewTable by value, for embedding a table inside a larger
// per-peer structure without a separate heap object.
func MakeTable(kind Kind, window int) Table {
	return Table{kind: kind, window: window}
}

// Add records one round-trip sample into s. A negative sample (a clock
// that stepped back) counts as zero.
func (t *Table) Add(s *Sample, rtt time.Duration) {
	rtt = max(rtt, 0)
	if t.kind == KindLast {
		s.v = int64(rtt) + 1
		return
	}
	if t.heap == nil {
		t.heap = new(estimators)
	}
	h := t.heap
	if s.v == 0 {
		var i int32
		if n := len(h.spare); n > 0 {
			i = h.spare[n-1]
			h.spare = h.spare[:n-1]
		} else {
			i = int32(len(h.all))
			h.all = append(h.all, nil)
		}
		h.all[i] = MustNew(t.kind, t.window)
		s.v = int64(i) + 1
	}
	h.all[s.v-1].Add(rtt)
}

// Value returns the current estimate s holds (Unknown if none).
func (t *Table) Value(s Sample) time.Duration {
	switch {
	case s.v == 0:
		return Unknown
	case t.kind == KindLast:
		return time.Duration(s.v - 1)
	}
	return t.heap.all[s.v-1].Estimate()
}

// Clear drops the history s holds.
func (t *Table) Clear(s *Sample) {
	if s.v != 0 && t.kind != KindLast {
		t.heap.all[s.v-1] = nil
		t.heap.spare = append(t.heap.spare, int32(s.v-1))
	}
	s.v = 0
}

// Observe records a sample for a peer, creating its record on first use.
func (t *Table) Observe(peer string, rtt time.Duration) {
	if t.peers == nil {
		t.peers = make(map[string]Sample)
	}
	s := t.peers[peer]
	t.Add(&s, rtt)
	t.peers[peer] = s
}

// Estimate returns the current estimate for a peer (Unknown if none).
func (t *Table) Estimate(peer string) time.Duration {
	return t.Value(t.peers[peer])
}

// Forget drops a peer's history (used when a peer is marked dead).
func (t *Table) Forget(peer string) {
	if s, ok := t.peers[peer]; ok {
		t.Clear(&s)
		delete(t.peers, peer)
	}
}

// Len returns the number of tracked peers.
func (t *Table) Len() int { return len(t.peers) }

// Rank sorts the given peer IDs by ascending estimate; peers without
// samples (Unknown) go last. Ties break by peer ID so the order is
// deterministic.
func (t *Table) Rank(peers []string) []string {
	out := append([]string(nil), peers...)
	sort.SliceStable(out, func(i, j int) bool {
		ei, ej := t.Estimate(out[i]), t.Estimate(out[j])
		if ei != ej {
			return ei < ej
		}
		return out[i] < out[j]
	})
	return out
}
