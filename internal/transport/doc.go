// Package transport defines the message-oriented network abstraction all
// P2P-MPI middleware is written against, with two interchangeable
// implementations: real TCP (tcp.go) and the simulated Grid'5000 network
// (package simnet). Daemons, reservation services, the multi-job
// scheduler and the MPI library see only these interfaces, which is what
// lets the identical protocol code run on localhost sockets and inside
// the virtual-time simulator.
//
// The unit of exchange is the framed Message. Every Network calls back
// (Listener.OnConn, Conn.OnRecv and Network.DialFunc), and both
// ends of the control protocols (reserve, cancel, prepare, start, ping,
// kill) are written on those callbacks, one code path on either network:
//
//   - Serve is the server side: one FrameHandler for every inbound conn.
//   - Call is the client side: dial, send, one reply or a deadline,
//     close, then done(reply, err), exactly once.
//
// Who may block where: a FrameHandler and a Call's done run in the
// transport's delivery context and must not block: no Sleep, Dial,
// RequestReply or Pop of an empty queue. They may send, start another
// Call, push to a mailbox (that is how a fan-out wakes the one actor
// waiting for it) and schedule events. On simnet the delivery context is
// the event that delivered the frame, fired the deadline or ended the
// handshake. On TCP it is a goroutine: the conn's reader goroutine runs
// the handler (one that blocks
// anyway stalls that conn alone; a deadline is its socket's read
// deadline), and a Call's done runs on the reader or, when the dial or
// the send failed, on the dial goroutine. Code
// that is a sequential script anyway — an actor of its own that
// registers, refreshes, or runs a command-line tool — uses the blocking
// forms, Accept, Recv, RecvTimeout, Dial and RequestReply, which park
// the calling actor and nothing else.
package transport
