// Package transport defines the message-oriented network abstraction all
// P2P-MPI middleware is written against, with two interchangeable
// implementations: real TCP (tcp.go) and the simulated Grid'5000 network
// (package simnet). Daemons, reservation services, the multi-job
// scheduler and the MPI library see only these interfaces, which is what
// lets the identical protocol code run on localhost sockets and inside
// the virtual-time simulator.
//
// The unit of exchange is the framed Message, and both ends of the
// control protocols (reserve, cancel, prepare, start, ping, kill) are
// written as callbacks:
//
//   - Serve is the server side: one FrameHandler per inbound conn, run
//     from the transport's delivery callbacks where it has them
//     (CallbackListener, CallbackConn — simnet: no goroutine per
//     listener or conn) and from Recv loops elsewhere.
//   - Call is the client side: dial, send, one reply or a deadline,
//     close, then done(reply, err), exactly once. On a CallbackNetwork
//     (simnet) that is a chain of delivery events with no goroutine,
//     queue or mailbox; elsewhere it is RequestReply on a goroutine
//     spawned for the exchange.
//
// Who may block where: a FrameHandler and a Call's done run in the
// transport's delivery context — inside the event that delivered the
// frame, fired the deadline or ended the handshake — and must not
// block: no Sleep, Dial, RequestReply or Pop of an empty queue. They may
// send, start another Call, push to a mailbox (that is how a fan-out
// wakes the one actor waiting for it) and schedule events. Code that is
// a sequential script anyway — an actor of its own that registers,
// refreshes, or runs a command-line tool — uses the blocking forms,
// Dial and RequestReply, which park the calling actor and nothing else.
package transport
