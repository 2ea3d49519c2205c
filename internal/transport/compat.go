package transport

import "time"

// RequestReply dials addr, sends req, waits up to timeout for a single
// reply and closes the connection: Call's blocking form.
// Kept for bench/; ROADMAP item 1(v) deletes it.
func RequestReply(n Network, addr string, req Message, timeout time.Duration) (Message, error) {
	c, err := n.Dial(addr)
	if err != nil {
		return Message{}, err
	}
	defer c.Close()
	if err := c.Send(req); err != nil {
		return Message{}, err
	}
	return c.RecvTimeout(timeout)
}
