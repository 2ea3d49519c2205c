// Package transport defines the message-oriented network abstraction all
// P2P-MPI middleware is written against, with two interchangeable
// implementations: real TCP (tcp.go) and the simulated Grid'5000 network
// (package simnet). Daemons, reservation services, the multi-job
// scheduler and the MPI library see only these interfaces, which is what
// lets the identical protocol code run on localhost sockets and inside
// the virtual-time simulator.
//
// The unit of exchange is the framed Message; RequestReply layers the
// one-shot RPC pattern used by the control protocols (reserve, cancel,
// prepare, start, ping) on top of a Conn, and Serve is its server side:
// one FrameHandler per inbound conn, run from the transport's delivery
// callbacks where it has them (CallbackListener, CallbackConn — simnet:
// no goroutine per listener or conn) and from Recv loops elsewhere.
package transport
