package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"p2pmpi/internal/transport"
)

// The frame path.
//
// Every frame the network carries — data, SYN, accept/refuse, FIN — is
// one xmsg, built by a sender half and consumed by a receiver half:
//
//   - depart runs at send time on the sender's shard: it reserves the
//     sender's NIC-out, draws the flow's jitter (and a data frame's fault
//     outcome) and copies the payload;
//   - land replays the backbone-pipe and receiver-NIC reservations,
//     computes the arrival and schedules the delivery or handshake event
//     on the receiving shard's heap.
//
// Between the two, route asks the one structural question: when both
// hosts share a shard (always, unsharded) land runs immediately; when
// the frame crosses a shard boundary the sender's event loop may not
// touch the receiving shard's state, so the frame waits in the shard's
// outbox and lands at the barrier merge (shard.go), in global
// (send time, sender rank, emission seq) order.

// xmsg kinds.
const (
	xSend   uint8 = iota // established-conn data frame
	xDial                // SYN of a new connection
	xAccept              // handshake success travelling back
	xRefuse              // handshake RST travelling back
	xFin                 // close marker trailing the data
)

// xkindName names a frame kind in lookahead-violation messages.
var xkindName = [...]string{
	xSend: "frame", xDial: "SYN", xAccept: "handshake reply", xRefuse: "handshake reply", xFin: "FIN",
}

// xmsg is one frame between its two halves: on the stack when it lands
// inline, parked in the sender shard's outbox until the barrier merge
// when it crosses.
type xmsg struct {
	kind uint8

	// Fault outcomes, drawn at emission (xSend only). A dropped frame
	// still lands so its reservations and FIFO clamp are replayed; only
	// its delivery is suppressed (determinism rule 2, faults.go). A
	// duplicated frame schedules a second delivery dupDelay after the
	// first, outside the FIFO clamp.
	drop     bool
	dup      bool
	dupDelay time.Duration

	at      time.Duration // emission (send) time
	rank    int           // emitting host's global rank
	seq     uint64        // per-shard emission sequence (crossing frames)
	size    int64         // wire size including frame overhead
	partial time.Duration // sender-side frontier: NIC-out finish time
	jit     time.Duration // jitter, drawn at emission from the flow stream
	state   uint64        // flow-stream state after the sender's draws

	// The path, resolved by the sender so neither half pays a map lookup
	// per message: from and to are the frame's own direction (a handshake
	// reply travels listener → dialer).
	from, to *netHost
	pipe     *serializer // backbone pipe between the two sites
	base     time.Duration

	c   *conn             // xSend/xFin: the *sender's* endpoint
	hs  *handshake        // xDial/xAccept/xRefuse
	msg transport.Message // xSend: the sender's message, its payload swapped for the copy by depart
}

// depart is the sender half of a frame. The caller has made the liveness
// and cut checks and filled in kind, size, path and kind-specific
// fields; depart touches only what the sender's shard owns — the
// sender's NIC-out frontier, the flow's jitter stream, the shard's
// buffer pool — and routes the frame on.
//
// This is the only place a frame draws from its flow stream, so the
// draw order — jitter, then for data frames drop, duplicate,
// duplicate-delay (frameFate) — is the same in both engines by
// construction. The stream state is captured after the last draw, so a
// receiver on another shard adopts the post-draw position.
func (n *Net) depart(x *xmsg, rng *rand.Rand, src *flowSource) {
	from := x.from
	sh := from.sh
	x.at = sh.rt.Elapsed()
	x.rank = from.rank
	x.partial = from.nicOut.reserve(x.at, x.size)
	x.jit = n.jitter(rng, x.base)
	// Handshake frames are exempt from loss, slowdown and duplication
	// (faults.go).
	if fa := n.faults; fa != nil && x.kind == xSend {
		x.jit += fa.slowExtra(from, x.to, x.base)
		x.drop, x.dup, x.dupDelay = fa.frameFate(rng, from, x.to)
	}
	x.state = src.state
	// Copy the payload — the sender may reuse its buffer immediately —
	// into a pooled buffer that the receiver's Release recycles. The copy
	// comes from the sender shard's pool and is released into the
	// receiver shard's pool after delivery — capacity migrates along
	// traffic, each pool still touched by one shard only. A dropped frame
	// ships no payload: it exists only to replay its reservations.
	if p := x.msg.Payload; len(p) > 0 {
		var cp []byte
		if !x.drop {
			cp = sh.bufPool.Get(len(p))
			copy(cp, p)
		}
		x.msg.Payload = cp
	}
	n.route(x)
}

// route hands a frame to its receiver half: inline when both hosts share
// a shard, through the sender shard's outbox (to land at the next
// barrier) when the frame crosses.
func (n *Net) route(x *xmsg) {
	if sh := x.from.sh; sh != x.to.sh {
		sh.emit(x)
		return
	}
	n.land(x)
}

// land is the receiver half of a frame: reservations on the shared path,
// arrival time, FIFO clamp, then the delivery or handshake event on the
// receiving shard. It runs either inline from route (now == x.at) or
// from the barrier merge with every shard parked at the committed
// horizon (now ≥ x.at), so it may touch the receiving shard's state
// either way.
func (n *Net) land(x *xmsg) {
	to := x.to
	dst := to.sh
	crossed := x.from.sh != dst
	var arrival time.Duration
	if x.kind == xFin {
		// A FIN occupies no capacity and draws nothing; it trails any
		// in-flight data (FIFO via lastArrival).
		arrival = x.at + x.base
		if l := x.c.lastArrival; l > arrival {
			arrival = l
		}
	} else {
		finish := x.partial
		if f := x.pipe.reserve(x.at, x.size); f > finish {
			finish = f
		}
		// The receiver NIC is the one serializer local and crossing
		// frames share (see serializer): a crossing frame is slotted into
		// its exact sequential position among the window's logged local
		// reservations; a local frame on a sharded net logs itself for
		// that replay; unsharded there is nothing to merge with.
		var f time.Duration
		switch {
		case crossed:
			f = n.reserveCross(&to.nicIn, x.at, x.rank, x.size)
		case n.sharded:
			f = to.nicIn.reserveLocal(n.winID, x.at, x.rank, x.size)
		default:
			f = to.nicIn.reserve(x.at, x.size)
		}
		if f > finish {
			finish = f
		}
		arrival = finish + x.base + x.jit
	}
	if x.kind == xSend {
		c := x.c
		if arrival <= c.lastArrival {
			arrival = c.lastArrival + time.Nanosecond
		}
		c.lastArrival = arrival
		if x.drop {
			// The frame paid its reservations and advanced the FIFO clamp;
			// only its delivery vanishes (determinism rule 2, faults.go).
			return
		}
	}
	// The lookahead-safety invariant: no event may land in the receiving
	// shard's past. An inline frame cannot trip it (arrival ≥ x.at ==
	// now); at a barrier now is the committed horizon.
	now := dst.rt.Elapsed()
	if n.check && arrival < now {
		lookaheadViolation(x, arrival, now)
	}
	switch x.kind {
	case xSend:
		peer := x.c.peer
		d := dst.getDelivery()
		d.peer = peer
		d.msg = transport.Pooled(x.msg.Payload, x.msg.Virtual, &dst.bufPool)
		// Same-shard endpoints share one stream object; a frame that
		// crossed carries the sender's post-draw state for the receiving
		// endpoint's private stream to adopt on delivery.
		d.state, d.sync = x.state, crossed
		dst.rt.ScheduleArg(arrival-now, fireDelivery, d)
		if x.dup {
			// The duplicate is its own copy (pooled buffers are released per
			// delivery) and skips the lastArrival clamp: it lands dupDelay
			// after the original, unordered against later frames. It does
			// not sync the flow stream — by the time it lands, later frames
			// may already have advanced the receiver's state past x.state.
			var cp []byte
			if len(x.msg.Payload) > 0 {
				cp = dst.bufPool.Get(len(x.msg.Payload))
				copy(cp, x.msg.Payload)
			}
			d2 := dst.getDelivery()
			d2.peer = peer
			d2.msg = transport.Pooled(cp, x.msg.Virtual, &dst.bufPool)
			dst.rt.ScheduleArg(arrival+x.dupDelay-now, fireDelivery, d2)
		}
	case xDial:
		x.hs.state = x.state
		dst.rt.ScheduleArg(arrival-now, fireSYN, x.hs)
	case xAccept, xRefuse:
		x.hs.state = x.state
		dst.rt.ScheduleArg(arrival-now, fireDialResult, x.hs)
	case xFin:
		dst.rt.ScheduleArg(arrival-now, fireFin, x.c.peer)
	}
}

// lookaheadViolation is land's panic, kept out of line so its formatting
// temporaries stay off the per-message stack frame.
func lookaheadViolation(x *xmsg, arrival, now time.Duration) {
	panic(fmt.Sprintf(
		"simnet: lookahead violation: cross-shard %s sent at %s arrives at %s, before the committed horizon %s (window too wide for the real minimum latency)",
		xkindName[x.kind], x.at, arrival, now))
}

// delivery is one in-flight message: a pooled, closure-free event
// payload scheduled through vtime.ScheduleArg. Carriers are recycled
// through a free list and allocated in blocks when it runs dry, so even
// a burst of sends that outruns delivery (nothing recycled yet) costs
// one allocation per block of messages, not one per message.
type delivery struct {
	sh    *netShard // owning (receiving) shard's free list
	peer  *conn
	msg   transport.Message
	state uint64    // sender's flow-stream state, adopted when sync is set
	sync  bool      // the frame crossed shards
	next  *delivery // free-list link
}

const deliveryBlock = 256

func (sh *netShard) getDelivery() *delivery {
	d := sh.delFree
	if d == nil {
		block := make([]delivery, deliveryBlock)
		for i := 1; i < len(block); i++ {
			block[i].sh = sh
			block[i].next = sh.delFree
			sh.delFree = &block[i]
		}
		block[0].sh = sh
		return &block[0]
	}
	sh.delFree = d.next
	d.next = nil
	return d
}

// fireDelivery delivers the message — to the endpoint's handler, which
// runs to completion right here, or to its inbox — unless the
// destination died or closed (either end: a duplicate can trail the FIN)
// while it was in flight, and recycles the carrier. Package-level so
// scheduling it captures nothing. For a frame that crossed shards it
// first syncs the receiving endpoint's flow stream to the sender's
// post-draw state.
func fireDelivery(a any) {
	d := a.(*delivery)
	sh, peer, msg := d.sh, d.peer, d.msg
	if d.sync {
		peer.src.state = d.state
	}
	d.peer = nil
	d.msg = transport.Message{}
	d.state = 0
	d.sync = false
	d.next = sh.delFree
	sh.delFree = d
	switch {
	case peer.lh.down || peer.closed || peer.peerClosed:
		msg.Release()
	case peer.handler != nil:
		peer.handler(msg, nil)
	default:
		peer.queue().Push(msg)
	}
}

// handshake is one dial in progress, created on the dialer's shard and
// carried by the SYN and its reply. Like TCP, the dialer observes a full
// round trip: done runs when the reply lands. The two shards never touch
// it in the same window — the dialer's shard lets go of it when the SYN
// departs and sees it again only in fireDialResult, and each hand-over
// is ordered by the barrier the frame crossed at.
type handshake struct {
	n        *Net
	from, to *netHost // dialer, listener
	port     string   // destination port
	local    string   // dialer's ephemeral address
	pipe     *serializer
	base     time.Duration // dialer → listener
	rng      *rand.Rand    // the flow stream minted by Dial,
	src      *flowSource   // which the dialing endpoint keeps
	state    uint64        // stream state carried by the frame that just landed
	client   *conn         // set on accept; nil means refused
	done     func(transport.Conn, error)
}

// fireSYN runs on the listener's shard when a SYN arrives: it accepts or
// refuses, and sends the handshake reply back (the RST also takes one
// trip back).
func fireSYN(a any) {
	hs := a.(*handshake)
	n, from, to := hs.n, hs.from, hs.to
	// Same-shard endpoints share the one stream Dial minted. A listener
	// on another shard cannot share an object with the dialer's event
	// loop, so it continues the stream from the state the SYN carried;
	// the dialing endpoint catches up from the state the reply carries.
	rng, src := hs.rng, hs.src
	if from.sh != to.sh {
		src = &flowSource{state: hs.state}
		rng = rand.New(src)
	}
	back := n.topo.SiteLatency(to.site, from.site)
	kind := xRefuse
	if l := to.listener(hs.port); !to.down && l != nil && !l.closed {
		kind = xAccept
		client, server := newConnPair(hs, l.addr, back, rng, src)
		hs.client = client
		l.deliver(server) // queues it or installs its frame handler; draws and sends nothing
	}
	var x xmsg
	x.kind, x.size, x.hs = kind, 64, hs
	x.from, x.to, x.pipe, x.base = to, from, hs.pipe, back
	n.depart(&x, rng, src)
}

// fireDialResult completes a dial on the dialer's shard: the dialer's
// continuation runs right here with the dialing endpoint, or with
// ErrUnreachable when the dial was refused or cut off.
func fireDialResult(a any) {
	hs := a.(*handshake)
	c := hs.client
	if c == nil {
		hs.done(nil, transport.ErrUnreachable)
		return
	}
	// A reply that crossed seeds the dialing endpoint's private stream
	// with the state it carried (same-shard, the stream is shared and the
	// listener may already have drawn past that state).
	if hs.from.sh != hs.to.sh {
		c.src.state = hs.state
	}
	hs.done(c, nil)
}

// fireFin closes the receiving endpoint when a FIN arrives, after all
// in-flight data (FIFO): the handler is told once, pending Recvs drain
// buffered frames then see ErrClosed; a locally closed endpoint has
// nobody to tell. peerClosed is how an endpoint on another shard learns
// of the close — one network trip late, the earliest it causally can;
// see conn.Send.
func fireFin(a any) {
	peer := a.(*conn)
	peer.peerClosed = true
	switch {
	case peer.closed:
	case peer.handler != nil:
		peer.handler(transport.Message{}, transport.ErrClosed)
	case peer.inbox != nil:
		peer.inbox.Close()
	}
}
