package vtime

import (
	"sync"
	"time"
)

// Mailbox is the runtime-portable unbounded FIFO used by middleware code
// to gather concurrent results (e.g. reservation fan-out answers). The
// scheduler implementation parks actors in virtual time; the Real
// implementation blocks goroutines on a condition variable. Code written
// against Runtime must use mailboxes — not bare channels or WaitGroups —
// wherever it blocks, or it would stall the virtual clock.
type Mailbox interface {
	// Push appends a value. Push on a closed mailbox is a no-op.
	Push(v any)
	// Pop blocks until a value is available; ok is false after Close
	// drains.
	Pop() (v any, ok bool)
	// PopTimeout is Pop with a deadline; d < 0 blocks forever. It
	// returns ErrTimeout or ErrClosed.
	PopTimeout(d time.Duration) (any, error)
	// Close wakes all waiters; buffered values remain poppable.
	Close()
	// Len returns the number of buffered values.
	Len() int
}

// NewMailbox returns a virtual-time mailbox. Part of the Runtime
// interface.
func (s *Scheduler) NewMailbox() Mailbox {
	return &schedMailbox{q: NewQueue[any](s)}
}

type schedMailbox struct{ q *Queue[any] }

func (m *schedMailbox) Push(v any) { m.q.Push(v) }
func (m *schedMailbox) Pop() (any, bool) {
	return m.q.Pop()
}
func (m *schedMailbox) PopTimeout(d time.Duration) (any, error) {
	return m.q.PopTimeout(d)
}
func (m *schedMailbox) Close()   { m.q.Close() }
func (m *schedMailbox) Len() int { return m.q.Len() }

// NewMailbox returns a wall-clock mailbox. Part of the Runtime interface.
func (Real) NewMailbox() Mailbox {
	m := &realMailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

type realMailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []any
	closed bool
}

func (m *realMailbox) Push(v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.items = append(m.items, v)
	m.cond.Broadcast()
}

func (m *realMailbox) Pop() (any, bool) {
	v, err := m.PopTimeout(-1)
	return v, err == nil
}

func (m *realMailbox) PopTimeout(d time.Duration) (any, error) {
	var deadline time.Time
	if d >= 0 {
		deadline = time.Now().Add(d)
		// A timer wakes the cond so timed waiters can give up.
		t := time.AfterFunc(d, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer t.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if len(m.items) > 0 {
			v := m.items[0]
			m.items = m.items[1:]
			return v, nil
		}
		if m.closed {
			return nil, ErrClosed
		}
		if d >= 0 && !time.Now().Before(deadline) {
			return nil, ErrTimeout
		}
		m.cond.Wait()
	}
}

func (m *realMailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

func (m *realMailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// FanIn is the receiving end of a fan-out of callbacks (transport.Call
// continuations): a countdown they report to, which wakes the one parked
// caller once — when the last answer is in, or at the first one that
// aborts the wait. The continuations run in delivery context in virtual
// time and on a goroutine each over TCP, hence the lock; state they
// share beside the count is theirs to guard.
type FanIn struct {
	mu   sync.Mutex
	left int
	mb   Mailbox
}

// NewFanIn returns a countdown of n answers on rt's mailboxes.
func NewFanIn(rt Runtime, n int) *FanIn {
	f := &FanIn{left: n, mb: rt.NewMailbox()}
	if n == 0 {
		f.mb.Push(true)
	}
	return f
}

// Done counts one answer in; abort writes the outstanding ones off.
func (f *FanIn) Done(abort bool) {
	f.mu.Lock()
	wake := f.left > 0 && (abort || f.left == 1)
	f.left--
	if wake {
		f.left = 0 // later answers find nobody to wake
	}
	f.mu.Unlock()
	if wake {
		f.mb.Push(!abort)
	}
}

// Wait parks the caller until the countdown ends and reports whether
// every answer came in (false: one aborted it).
func (f *FanIn) Wait() bool {
	v, _ := f.mb.Pop()
	return v.(bool)
}
