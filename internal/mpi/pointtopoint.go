package mpi

import (
	"time"

	"p2pmpi/internal/vtime"
)

// Sendrecv performs the classic combined exchange: send to dst and
// receive from src in one deadlock-free operation (sends never block in
// this library, so the pair is safe in any schedule, including
// self-exchange).
func (c *Comm) Sendrecv(dst, sendTag int, out Data, src, recvTag int) (Data, Status, error) {
	if err := c.Send(dst, sendTag, out); err != nil {
		return Data{}, Status{}, err
	}
	return c.Recv(src, recvTag)
}

// Probe blocks until a message matching (src, tag) is available and
// returns its envelope without consuming it; a following Recv with the
// returned status fields observes the same message.
func (c *Comm) Probe(src, tag int) (Status, error) {
	return c.probe(src, tag, -1)
}

// ProbeTimeout is Probe bounded by d (< 0 blocks forever).
func (c *Comm) ProbeTimeout(src, tag int, d time.Duration) (Status, error) {
	return c.probe(src, tag, d)
}

// Iprobe is the non-blocking probe: it reports whether a matching
// message is already buffered.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	c.drainInboxNonblocking()
	for _, ev := range c.pend {
		if matches(ev, src, tag) {
			return Status{Source: ev.srcRank, Tag: ev.tag}, true
		}
	}
	return Status{}, false
}

func (c *Comm) probe(src, tag int, d time.Duration) (Status, error) {
	var deadline time.Time
	hasDeadline := d >= 0
	if hasDeadline {
		deadline = c.cfg.RT.Now().Add(d)
	}
	for _, ev := range c.pend {
		if matches(ev, src, tag) {
			return Status{Source: ev.srcRank, Tag: ev.tag}, nil
		}
	}
	for {
		wait := time.Duration(-1)
		if hasDeadline {
			wait = deadline.Sub(c.cfg.RT.Now())
			if wait < 0 {
				return Status{}, ErrTimeout
			}
		}
		v, err := c.inbox.PopTimeout(wait)
		if err == vtime.ErrTimeout {
			return Status{}, ErrTimeout
		}
		if err != nil {
			return Status{}, ErrClosed
		}
		ev, ok := c.take(v)
		if !ok {
			continue
		}
		// Buffer it either way: Probe never consumes.
		c.pend = append(c.pend, ev)
		if matches(ev, src, tag) {
			return Status{Source: ev.srcRank, Tag: ev.tag}, nil
		}
	}
}

// drainInboxNonblocking moves already-delivered envelopes into the
// matching buffer without parking the caller.
func (c *Comm) drainInboxNonblocking() {
	for {
		v, err := c.inbox.PopTimeout(0)
		if err != nil {
			return
		}
		if ev, ok := c.take(v); ok {
			c.pend = append(c.pend, ev)
		}
	}
}
