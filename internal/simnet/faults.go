package simnet

import (
	"math/rand"
	"time"
)

// Network-fault state: site↔site partitions, constant cross-site link
// degradation, gray-failure hosts and bounded message duplication.
//
// Determinism contract (see docs/PERF.md). The fault state follows the
// FailHost rules — mutated only while the scheduler is idle or at a
// domain barrier, read freely from shard event loops — so within any
// conservative window it is constant and identical in the sequential
// and sharded engines. On top of that, three rules keep the two
// engines' traces byte-identical:
//
//  1. Extra RNG draws are gated only on predicates computable from
//     window-constant state (effective drop probability > 0, DupProb >
//     0), never on per-engine conditions, so every flow stream advances
//     identically everywhere.
//  2. A randomly dropped frame still pays its full path reservations
//     (sender NIC, backbone pipe, receiver NIC) and its FIFO arrival
//     clamp — only the delivery event (and its payload copy) is
//     suppressed. Serializer frontiers therefore never depend on drop
//     outcomes' delivery side effects.
//  3. Partition cuts and the latency multiplier draw nothing: a cut
//     send returns before any reservation or draw, and the multiplier
//     is a pure arithmetic surcharge on the planned arrival.
//
// Handshake and close frames (SYN, accept/refuse, FIN) are exempt from
// random loss, slowdown and duplication — the transport layer is
// assumed to retransmit them — which also keeps Dial from blocking
// forever on a lost handshake. Partitions do affect dials: a Dial
// across an active cut fails with ErrUnreachable after one round trip.
type faultState struct {
	loss     float64          // cross-site data-frame drop probability
	latMult  float64          // cross-site latency multiplier (≥ 1)
	cuts     map[sitePair]int // refcounted active partition cuts
	gray     map[string]*grayState
	dupProb  float64
	dupDelay time.Duration
}

// grayState is one host's active gray episode: alive, but dropping and
// slowing its own traffic in both directions.
type grayState struct {
	drop float64 // per-frame drop probability on any link of the host
	slow float64 // latency multiplier on any link of the host (≥ 1)
}

func (n *Net) ensureFaults() *faultState {
	if n.faults == nil {
		n.faults = &faultState{
			latMult: 1,
			cuts:    make(map[sitePair]int),
			gray:    make(map[string]*grayState),
		}
	}
	return n.faults
}

// SetLinkFault installs the constant cross-site degradation: every
// cross-site data frame is dropped with probability loss, and every
// cross-site base latency is multiplied by latMult (values below 1 mean
// unchanged). A zero degradation on a network without fault state
// installs none, so its frames keep the unfaulted path. Like FailHost,
// callable only while the scheduler is idle or at a domain barrier.
func (n *Net) SetLinkFault(loss, latMult float64) {
	if latMult < 1 {
		latMult = 1
	}
	if n.faults == nil && loss == 0 && latMult == 1 {
		return
	}
	f := n.ensureFaults()
	f.loss = loss
	f.latMult = latMult
}

// SetCut cuts (on) or heals (off) the site↔site link between a and b.
// Cuts are reference-counted, so overlapping episodes compose. While
// cut, established-conn frames between the sites vanish silently (the
// sender learns via timeout) and new dials fail with ErrUnreachable.
// Same mutation contract as FailHost.
func (n *Net) SetCut(a, b string, on bool) {
	f := n.ensureFaults()
	key := pipeKey(a, b)
	if on {
		f.cuts[key]++
		return
	}
	if c := f.cuts[key]; c > 1 {
		f.cuts[key] = c - 1
	} else {
		delete(f.cuts, key)
	}
}

// SetGray starts (on) or ends (off) a host's gray episode: the host
// stays up and keeps answering, but every data frame it sends or
// receives is dropped with probability drop, and all its traffic is
// slowed by slow (values below 1 mean unchanged). Same mutation
// contract as FailHost.
func (n *Net) SetGray(host string, drop, slow float64, on bool) {
	f := n.ensureFaults()
	if !on {
		delete(f.gray, host)
		return
	}
	if slow < 1 {
		slow = 1
	}
	f.gray[host] = &grayState{drop: drop, slow: slow}
}

// SetDuplication makes every delivered data frame arrive twice with
// probability p; the copy lands a uniform draw of up to delay later,
// unordered against later traffic (the reordering mechanism). Same
// mutation contract as FailHost.
func (n *Net) SetDuplication(p float64, delay time.Duration) {
	f := n.ensureFaults()
	f.dupProb = p
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	f.dupDelay = delay
}

// cut reports whether the two sites are currently partitioned.
func (f *faultState) cut(a, b string) bool {
	if len(f.cuts) == 0 {
		return false
	}
	return f.cuts[pipeKey(a, b)] > 0
}

// dropProb returns the effective drop probability of one data frame:
// the cross-site link loss composed with each gray endpoint's drop,
// independently (1 - Π(1-p)). The result is a pure function of
// window-constant state — the draw-gating predicate of rule 1.
func (f *faultState) dropProb(from, to *netHost) float64 {
	var p float64
	if from.site != to.site {
		p = f.loss
	}
	if len(f.gray) > 0 {
		if g := f.gray[from.id]; g != nil {
			p = 1 - (1-p)*(1-g.drop)
		}
		if g := f.gray[to.id]; g != nil {
			p = 1 - (1-p)*(1-g.drop)
		}
	}
	return p
}

// slowExtra returns the deterministic latency surcharge of one frame:
// (multiplier − 1) × base, with the cross-site multiplier and both
// endpoints' gray slowdowns composed multiplicatively. Draws nothing.
func (f *faultState) slowExtra(from, to *netHost, base time.Duration) time.Duration {
	m := 1.0
	if from.site != to.site {
		m = f.latMult
	}
	if len(f.gray) > 0 {
		if g := f.gray[from.id]; g != nil {
			m *= g.slow
		}
		if g := f.gray[to.id]; g != nil {
			m *= g.slow
		}
	}
	if m <= 1 {
		return 0
	}
	return time.Duration((m - 1) * float64(base))
}

// frameFate draws one data frame's fault outcome from the flow's own
// jitter stream, in a fixed order (drop, then duplication, then the
// copy's delay) with each draw gated per rule 1. Dropped frames are
// never also duplicated.
func (f *faultState) frameFate(rng *rand.Rand, from, to *netHost) (dropped, dup bool, dupDelay time.Duration) {
	if p := f.dropProb(from, to); p > 0 {
		if rng.Float64() < p {
			return true, false, 0
		}
	}
	if f.dupProb > 0 {
		if rng.Float64() < f.dupProb {
			dup = true
			dupDelay = time.Duration(rng.Float64() * float64(f.dupDelay))
		}
	}
	return dropped, dup, dupDelay
}
