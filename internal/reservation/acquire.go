package reservation

import (
	"errors"
	"sort"
	"time"

	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// ErrContended is returned by Acquire when, after every retry round, the
// gathered offers still do not satisfy the caller's Enough predicate.
// Every reservation obtained along the way has been released: the
// acquisition is all-or-nothing.
var ErrContended = errors.New("reservation: could not secure enough hosts")

// Conflicts aggregates the reserve outcomes of one acquisition across
// all its brokering rounds. It is the raw material of the scheduler's
// reservation-conflict rate.
type Conflicts struct {
	// OK counts ReserveOK answers (including surplus offers that were
	// cancelled again).
	OK int
	// NOK counts ReserveNOK answers — the contention signal: a host that
	// answered but had no free application slot (or denied the
	// submitter).
	NOK int
	// Dead counts peers that never answered.
	Dead int
	// Rounds is the number of brokering rounds performed (1 + retries
	// actually used).
	Rounds int
}

// Attempts returns the total number of reserve requests answered or
// timed out.
func (c Conflicts) Attempts() int { return c.OK + c.NOK + c.Dead }

// Rate returns NOK / Attempts, the fraction of reserve requests lost to
// contention; zero when nothing was attempted.
func (c Conflicts) Rate() float64 {
	if a := c.Attempts(); a > 0 {
		return float64(c.NOK) / float64(a)
	}
	return 0
}

// Add accumulates the counters of another acquisition into c.
func (c *Conflicts) Add(o Conflicts) {
	c.OK += o.OK
	c.NOK += o.NOK
	c.Dead += o.Dead
	c.Rounds += o.Rounds
}

// AcquireSpec configures an atomic multi-host acquisition.
type AcquireSpec struct {
	// Req is the Reserve request fanned out to every candidate; its Key
	// identifies the acquisition at every host.
	Req proto.Reserve
	// Timeout bounds each brokering round (per-peer answer deadline).
	Timeout time.Duration
	// Need is the number of offers the caller intends to use (the slist
	// cut, normally n×r); offers beyond Need are cancelled immediately.
	// Zero means keep everything.
	Need int
	// Enough decides whether the accumulated offers suffice. When it
	// returns false and retries remain, refused peers are re-asked after
	// a backoff; when retries are exhausted, everything is released and
	// Acquire fails with ErrContended. A nil Enough accepts any outcome
	// after a single round (the paper's one-shot §4.2 behaviour).
	Enough func(offers []Offer) bool
	// Retries is the number of extra brokering rounds after the first.
	Retries int
	// Backoff is the pause before each retry round, doubled every round
	// (default 2s when retrying).
	Backoff time.Duration
}

// Acquire implements atomic multi-host reservation on top of Broker:
// it fans Reserve out to the candidates, accumulates positive offers
// across backoff-retry rounds (re-asking only peers that answered NOK —
// their application slot may have freed up), cancels surplus offers
// beyond spec.Need, and either returns a result satisfying spec.Enough
// or releases every obtained reservation and reports ErrContended.
//
// The returned offers are in candidate order regardless of which round
// produced them — callers pass candidates in ascending latency, and
// both the Need cut here and the slist fed to core.Allocate rely on
// that order surviving retries. Dead peers are dropped from retry
// rounds — a peer that did not answer is assumed gone, and asking
// again would only stretch the round. The Conflicts counters are
// returned even on failure so callers can account contention.
func Acquire(rt vtime.Runtime, net transport.Network, candidates []proto.PeerInfo,
	spec AcquireSpec) (BrokerResult, Conflicts, error) {

	var (
		acc   BrokerResult
		stats Conflicts
	)
	orderOf := make(map[string]int, len(candidates))
	for i, c := range candidates {
		orderOf[c.ID] = i
	}
	if spec.Backoff <= 0 {
		spec.Backoff = 2 * time.Second
	}
	remaining := candidates
	backoff := spec.Backoff
	for round := 0; ; round++ {
		res := Broker(rt, net, remaining, spec.Req, spec.Timeout)
		stats.Rounds++
		stats.OK += len(res.Offers)
		stats.NOK += len(res.Refused)
		stats.Dead += len(res.Dead)
		acc.Offers = append(acc.Offers, res.Offers...)
		acc.Dead = append(acc.Dead, res.Dead...)
		acc.Refused = res.Refused // only the final round's refusals stand

		if spec.Enough == nil || spec.Enough(acc.Offers) {
			break
		}
		if round >= spec.Retries || len(res.Refused) == 0 {
			// Atomic failure: hand every reservation back.
			ReleaseAll(rt, net, offerPeers(acc.Offers), spec.Req.Key, spec.Timeout)
			return acc, stats, ErrContended
		}
		rt.Sleep(backoff)
		backoff *= 2
		remaining = res.Refused
	}

	// Restore candidate (ascending latency) order: a retry round can
	// win a nearer host after a farther one, and the cut below must not
	// keep the far host just because it answered first.
	sort.SliceStable(acc.Offers, func(i, j int) bool {
		return orderOf[acc.Offers[i].Peer.ID] < orderOf[acc.Offers[j].Peer.ID]
	})

	// Cancel the surplus beyond Need, keeping the earliest (lowest
	// latency) offers.
	if spec.Need > 0 && len(acc.Offers) > spec.Need {
		surplus := acc.Offers[spec.Need:]
		acc.Offers = acc.Offers[:spec.Need]
		ReleaseAll(rt, net, offerPeers(surplus), spec.Req.Key, spec.Timeout)
	}
	return acc, stats, nil
}

func offerPeers(offers []Offer) []proto.PeerInfo {
	peers := make([]proto.PeerInfo, len(offers))
	for i, o := range offers {
		peers[i] = o.Peer
	}
	return peers
}

// ReleaseAll cancels the reservation key at every given peer
// concurrently and waits for the acknowledgements (bounded by timeout
// per peer). Unlike a fire-and-forget Cancel, waiting makes the release
// atomic from the caller's point of view: when ReleaseAll returns, no
// J slot is still consumed by this key at any reachable peer.
func ReleaseAll(rt vtime.Runtime, net transport.Network, peers []proto.PeerInfo,
	key string, timeout time.Duration) {

	if len(peers) == 0 {
		return
	}
	round := newFanIn(rt, len(peers))
	payload := proto.MustMarshal(&proto.Cancel{Key: key})
	for _, p := range peers {
		transport.Call(rt, net, p.RSAddr, transport.Message{Payload: payload}, timeout,
			func(reply transport.Message, _ error) {
				reply.Release()
				round.done()
			})
	}
	round.wait()
}
