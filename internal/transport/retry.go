package transport

import "time"

// The robustness vocabulary of the control plane: which RPC failures a
// retry can fix, and a per-peer circuit breaker. The retry loop itself
// lives with its one user (mpd.callRetry, a state machine over Call).

// Retryable classifies an RPC failure: true for failures a retry can
// plausibly fix (the request or reply timed out in flight, the listener
// was briefly absent — ErrTimeout, ErrUnreachable), false for "peer
// gone" conditions where the connection itself is dead (ErrClosed) and
// the caller should fail over instead of hammering a corpse.
func Retryable(err error) bool {
	switch err {
	case ErrTimeout, ErrUnreachable:
		return true
	}
	return false
}

// Breaker is a consecutive-failure circuit breaker for one peer. After
// Threshold consecutive failures it opens for Cooldown: Allow reports
// false and the caller should skip the peer (a gray supernode stops
// absorbing every client's full retry budget). Any success closes it.
// The zero value (Threshold 0) never opens. Not safe for concurrent
// use; callers guard it with their own lock (the simulator's actors
// are already serialized per scheduler).
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker;
	// 0 disables it.
	Threshold int
	// Cooldown is how long the breaker stays open (default 30s).
	Cooldown time.Duration

	fails     int
	openUntil time.Time
}

// Allow reports whether a call to the peer should proceed now.
func (b *Breaker) Allow(now time.Time) bool {
	if b.Threshold <= 0 {
		return true
	}
	return !now.Before(b.openUntil)
}

// Record feeds one call outcome into the breaker.
func (b *Breaker) Record(now time.Time, err error) {
	if b.Threshold <= 0 {
		return
	}
	if err == nil {
		b.fails = 0
		b.openUntil = time.Time{}
		return
	}
	b.fails++
	if b.fails >= b.Threshold {
		cd := b.Cooldown
		if cd <= 0 {
			cd = 30 * time.Second
		}
		b.openUntil = now.Add(cd)
		b.fails = 0
	}
}
