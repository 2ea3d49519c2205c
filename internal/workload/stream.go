package workload

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// tenantGen is one tenant's submission stream: a thinned
// nonhomogeneous Poisson process at the tenant's rate share, with
// bounded-Pareto sizes and durations, drawn from the tenant's own
// seeded source (envelope-exp, accept-uniform, N, duration per
// submission) and emitted one submission at a time.
type tenantGen struct {
	cfg      Config // defaults applied
	tenant   int
	pri      int
	envelope float64
	rng      *rand.Rand
	t        time.Duration
	emitted  int
	done     bool
}

func newTenantGen(c Config, i int) *tenantGen {
	g := &tenantGen{cfg: c, tenant: i, pri: TenantPriority(c, i)}
	g.envelope = c.Arrival.MaxRate() * tenantWeight(c, i)
	if g.envelope <= 0 {
		g.done = true
		return g
	}
	g.rng = rand.New(rand.NewSource(subSeed(c.Seed, fmt.Sprintf("tenant:%d", i))))
	return g
}

// next returns the tenant's next submission (Seq unassigned), or false
// when the stream is exhausted. A tenant stops after MaxSubmissions of
// its own, so the merged stream's global cut never waits on it.
func (g *tenantGen) next() (Submission, bool) {
	if g.done {
		return Submission{}, false
	}
	c := g.cfg
	for {
		dt := -math.Log(1-g.rng.Float64()) / g.envelope
		g.t += time.Duration(dt * float64(time.Second))
		if g.t >= c.Horizon || g.t < 0 {
			g.done = true
			return Submission{}, false
		}
		if g.rng.Float64()*c.Arrival.MaxRate() > c.Arrival.RateAt(g.t) {
			continue
		}
		n := int(math.Round(boundedPareto(g.rng.Float64(), nAlpha, float64(c.NMin), float64(c.NMax))))
		if n < c.NMin {
			n = c.NMin
		}
		if n > c.NMax {
			n = c.NMax
		}
		secs := boundedPareto(g.rng.Float64(), durAlpha, c.DurMin, c.DurMax)
		sub := Submission{At: g.t, Tenant: g.tenant, Priority: g.pri, N: n, Seconds: secs}
		if f := deadlineFactor(c, g.pri); f > 0 {
			sub.Deadline = g.t + time.Duration(f*secs*float64(time.Second))
		}
		g.emitted++
		if c.MaxSubmissions > 0 && g.emitted >= c.MaxSubmissions {
			g.done = true
		}
		return sub, true
	}
}

// streamHead is one tenant's next submission sitting in the merge heap.
type streamHead struct {
	sub Submission
	gen *tenantGen
}

type streamHeap []streamHead

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if h[i].sub.At != h[j].sub.At {
		return h[i].sub.At < h[j].sub.At
	}
	return h[i].sub.Tenant < h[j].sub.Tenant
}
func (h streamHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)   { *h = append(*h, x.(streamHead)) }
func (h *streamHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Stream is the open workload's submission timeline: every tenant's
// stream, merged by (At, Tenant), Seq assigned in timeline order,
// truncated to MaxSubmissions. It holds O(tenants) generator state
// instead of the timeline, so week-long multi-million-submission
// horizons replay in bounded memory. Because each tenant stream is a
// pure function of (Seed, tenant index) and the merge key is total, the
// timeline is deterministic in the Config alone; the reference oracle
// in stream_test.go materializes it the slow way and holds Stream to
// byte equality.
type Stream struct {
	heads streamHeap
	seq   int
	max   int // 0 = uncapped
}

// NewStream validates cfg and positions the stream at the first
// submission.
func NewStream(cfg Config) (*Stream, error) {
	c := cfg.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{max: c.MaxSubmissions}
	for i := 0; i < c.Tenants; i++ {
		g := newTenantGen(c, i)
		if sub, ok := g.next(); ok {
			s.heads = append(s.heads, streamHead{sub, g})
		}
	}
	heap.Init(&s.heads)
	return s, nil
}

// Peek returns the next submission without consuming it (Seq already
// assigned), or false when the stream is exhausted.
func (s *Stream) Peek() (Submission, bool) {
	if s.done() {
		return Submission{}, false
	}
	sub := s.heads[0].sub
	sub.Seq = s.seq
	return sub, true
}

// Next consumes and returns the next submission in timeline order, or
// false when the stream is exhausted.
func (s *Stream) Next() (Submission, bool) {
	if s.done() {
		return Submission{}, false
	}
	top := &s.heads[0]
	sub := top.sub
	if nxt, ok := top.gen.next(); ok {
		top.sub = nxt
		heap.Fix(&s.heads, 0)
	} else {
		heap.Pop(&s.heads)
	}
	sub.Seq = s.seq
	s.seq++
	return sub, true
}

func (s *Stream) done() bool {
	return len(s.heads) == 0 || (s.max > 0 && s.seq >= s.max)
}
