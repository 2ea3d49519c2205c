package transport

import (
	"errors"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	if !Retryable(ErrTimeout) || !Retryable(ErrUnreachable) {
		t.Fatal("timeouts and unreachable must be retryable")
	}
	if Retryable(ErrClosed) {
		t.Fatal("a closed conn means the peer is gone; retrying is failover's job")
	}
	if Retryable(errors.New("other")) || Retryable(nil) {
		t.Fatal("unknown errors and nil must not be retryable")
	}
}

func TestBreaker(t *testing.T) {
	now := time.Unix(1000, 0)
	b := Breaker{Threshold: 3, Cooldown: 10 * time.Second}
	for i := 0; i < 2; i++ {
		b.Record(now, ErrTimeout)
		if !b.Allow(now) {
			t.Fatalf("open after %d failures, threshold is 3", i+1)
		}
	}
	b.Record(now, ErrTimeout)
	if b.Allow(now) {
		t.Fatal("still closed after 3 consecutive failures")
	}
	if b.Allow(now.Add(9 * time.Second)) {
		t.Fatal("reopened inside the cooldown")
	}
	if !b.Allow(now.Add(10 * time.Second)) {
		t.Fatal("still open after the cooldown")
	}
	// A success closes it and resets the streak.
	b.Record(now.Add(11*time.Second), nil)
	b.Record(now.Add(12*time.Second), ErrTimeout)
	b.Record(now.Add(13*time.Second), ErrTimeout)
	if !b.Allow(now.Add(13 * time.Second)) {
		t.Fatal("opened before a fresh streak reached the threshold")
	}
	// Threshold 0 never opens.
	var off Breaker
	for i := 0; i < 10; i++ {
		off.Record(now, ErrTimeout)
	}
	if !off.Allow(now) {
		t.Fatal("zero-value breaker must never open")
	}
}
