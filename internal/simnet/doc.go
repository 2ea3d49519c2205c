// Package simnet simulates the Grid'5000 wide-area network on top of the
// virtual-time scheduler. It implements the transport interfaces, so all
// middleware and MPI code runs unchanged inside it.
//
// The model, kept deliberately close to what shapes the paper's results:
//
//   - one-way propagation latency between sites (half the measured RTT),
//   - Gaussian jitter on every message, modelling the CPU and TCP load
//     variations the paper blames for its latency-ranking noise (§5.1),
//   - per-host NIC capacity (1 Gb/s GigE) and a shared inter-site pipe
//     (10 Gb/s backbone, 1 Gb/s toward bordeaux) with cut-through
//     queueing: a transfer occupies every resource on its path from its
//     start time, and a busy resource delays the transfer,
//   - strict FIFO per connection direction (TCP ordering).
//
// A Net runs on the shards of a vtime.Domain (NewSharded: sites
// partitioned onto the domain's schedulers, host and pipe tables frozen
// up front) — every exp.World is built this way, a one-shard domain
// included — or on one bare vtime.Scheduler with a lazily grown host
// table (New: unit tests, examples, and the sequential reference the
// fault-script differential test compares against). It is fully
// deterministic under its seed either way. There is one frame path
// (frame.go): every send, dial and close is a sender half (depart) and
// a receiver half (land); land runs inline when both hosts share a
// scheduler — always, on one shard — and at the domain barrier, in a
// global deterministic order, when the frame crosses shards.
// Independent Nets (one per experiment world) never share state, which
// is what lets the parallel sweep harness run many worlds on separate
// OS threads with reproducible results.
//
// The per-message path is single-writer and allocation-free: a Net
// carries no lock (every call runs in scheduler context, which
// serializes it — see docs/PERF.md), connections cache their host,
// pipe and base-latency lookups at setup, in-flight messages ride
// pooled delivery carriers, and payload copies come from a buffer pool
// that receivers refill via Message.Release. Receiving is by callback
// (transport.CallbackConn): the delivery event runs the endpoint's frame
// handler to completion — a served conn has no actor and no inbox; Recv,
// for scripts and tests, queues behind the same event. Dialing is by
// callback too (transport.CallbackNetwork): DialFunc sends the SYN and
// returns, and the event that ends the handshake runs the dialer's
// continuation, so the handshake parks nobody; the blocking Dial is that
// same start plus one park of the calling actor. With After for the
// deadline, a whole transport.Call — the control plane's request/reply —
// is three or four events on the caller's shard and no actor.
package simnet
