package transport

import (
	"math/bits"
	"sync"
)

// BufferPool is a size-classed free list for message payload buffers.
// The simulated network makes one payload copy per message in flight;
// at sweep scale that is hundreds of thousands of short-lived slices
// per experiment point, so the copies are recycled instead: senders
// take buffers from the pool and receivers hand them back with
// Message.Release once the frame is decoded. A Shared message takes
// nothing from the pool: its immutable payload travels by reference,
// which is how the big, repetitive frames (whole host lists) stay out
// of the size classes that small control replies keep warm.
//
// The free lists are deliberately unsynchronized. The pool's only
// production user is simnet, where every call site runs in scheduler
// context (actors and event callbacks execute one at a time, with
// cross-goroutine visibility established by the scheduler's own
// synchronization). A concurrent transport must either wrap it in a lock
// or not use it — a Message with a nil pool makes Release a no-op, so
// pooling is strictly opt-in per transport. Buffers above 64 KiB (gossip
// anti-entropy frames) bypass the free lists for process-wide
// sync.Pools (bigPools): reused while a storm lasts, collected after.
type BufferPool struct {
	classes [poolClasses][][]byte
}

const (
	poolMinBits = 6  // smallest class: 64 B
	poolMaxBits = 20 // largest class: 1 MiB; bigger buffers are not pooled
	poolClasses = poolMaxBits + 1
)

// class returns the smallest class whose capacity covers n, or -1 when
// n is out of pooled range.
func class(n int) int {
	if n <= 1<<poolMinBits {
		return poolMinBits
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c > poolMaxBits {
		return -1
	}
	return c
}

// Get returns a zero-filled-or-dirty buffer of length n (contents are
// unspecified; callers overwrite it). Buffers beyond the pooled range
// fall back to the allocator.
func (p *BufferPool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	c := class(n)
	if c < 0 {
		return make([]byte, n)
	}
	if c > poolRetainMaxClass {
		if bp, _ := bigPools[c-poolRetainMaxClass-1].Get().(*[]byte); bp != nil {
			return (*bp)[:n]
		}
		return make([]byte, n, 1<<c)
	}
	if l := len(p.classes[c]); l > 0 {
		b := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		return b[:n]
	}
	// Empty class: carve a block into fixed-capacity sub-buffers instead
	// of allocating one. A burst of sends that outruns the receivers (so
	// nothing has been recycled yet) then costs one allocation per block
	// of messages. Sub-buffers use full slice expressions, so appends
	// past a carved capacity copy out rather than trample a neighbour.
	size := 1 << c
	count := carveTarget / size
	if count < 2 {
		return make([]byte, n, size)
	}
	block := make([]byte, size*count)
	for i := 1; i < count; i++ {
		p.classes[c] = append(p.classes[c], block[i*size:i*size:(i+1)*size])
	}
	return block[0:n:size]
}

// carveTarget is the block size Get carves small classes from.
const carveTarget = 16 << 10

// Retention bounds: a class keeps at most one carve block's worth of
// buffers (but at least poolMinRetain of them, so alternating
// request/reply traffic stays allocation-free), and classes above
// poolRetainMaxClass keep nothing in the free lists. One block's worth,
// because a free list of sub-buffers returned in any order pins every
// block one of them was carved from: 1 024 retained 64 B buffers, 64 KiB
// of them, can pin 1 024 blocks of 16 KiB. Without a bound the
// pool's high-water mark is permanent: a boot storm that has every
// host's registration reply in flight at once would park hundreds of MB
// in free lists that steady state never touches again, and even a
// handful of retained gossip anti-entropy frames (hundreds of KB each)
// would outlive the storm that needed them. Excess buffers go back to
// the GC; a later burst re-carves blocks at one allocation per
// carveTarget of traffic, and big frames ride bigPools, which the GC
// empties.
const (
	poolRetainBytes    = carveTarget
	poolRetainMaxClass = 16 // 64 KiB; bigger buffers go through bigPools
	poolMinRetain      = 4
)

// maxRetain returns how many buffers class c (≤ poolRetainMaxClass) may
// keep.
func maxRetain(c int) int {
	n := poolRetainBytes >> c
	if n < poolMinRetain {
		n = poolMinRetain
	}
	return n
}

// bigPools carry the classes above poolRetainMaxClass, shared by every
// BufferPool in the process: a sync.Pool keeps a big frame's buffer
// while traffic keeps reusing it (a boot storm's gossip replies) and
// the GC empties it once traffic stops — reuse without a high-water
// mark, and no retention constant to tune.
var bigPools [poolMaxBits - poolRetainMaxClass]sync.Pool

// Put recycles a buffer previously handed out by Get. Buffers whose
// capacity does not match a pool class, and buffers beyond the class's
// retention bound, are dropped to the GC.
func (p *BufferPool) Put(b []byte) {
	c := cap(b)
	if c < 1<<poolMinBits || c > 1<<poolMaxBits || c&(c-1) != 0 {
		return
	}
	k := bits.TrailingZeros(uint(c))
	if k > poolRetainMaxClass {
		// Box a copy of the header: boxing the parameter itself would
		// heap-allocate it on every Put, the small classes' included.
		big := b[:0]
		bigPools[k-poolRetainMaxClass-1].Put(&big)
		return
	}
	if len(p.classes[k]) >= maxRetain(k) {
		return
	}
	p.classes[k] = append(p.classes[k], b[:0])
}

// Rehome re-homes b, a buffer p handed out, into dst: a buffer of a
// class p keeps in its own free lists is copied into one of dst's and
// goes back to p, so each pool's free lists only ever hold buffers it
// carved (simnet moves a payload this way when it crosses shards). A
// bigger buffer belongs to the process-wide pools, not to p, and is
// returned as it is: copying it would only put a second one in
// circulation.
func (p *BufferPool) Rehome(dst *BufferPool, b []byte) []byte {
	if c := cap(b); c < 1<<poolMinBits || c > 1<<poolRetainMaxClass || c&(c-1) != 0 {
		return b
	}
	cp := dst.Get(len(b))
	copy(cp, b)
	p.Put(b)
	return cp
}

// scratchPool lends the buffers outbound frames are encoded into.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// GetScratch lends a buffer to encode one small outbound frame into.
// The frame is the caller's until the Send that carries it returns
// (Send keeps no reference), then goes back with PutScratch. Servers
// build their replies this way rather than in per-conn or per-daemon
// buffers: the lender keeps per-P caches, so a world of thousands of
// daemons holds a handful of buffers, not one each, and under TCP,
// where conns really are served concurrently, no two share one. A
// server whose replies are O(world) — the supernode's host lists and
// gossip — keeps a lender of its own: sharing this one, the steady
// stream of small replies would keep its big buffers alive across GC
// cycles.
func GetScratch() *[]byte { return scratchPool.Get().(*[]byte) }

// PutScratch returns a lent buffer, keeping the capacity frame grew it
// to.
func PutScratch(sp *[]byte, frame []byte) {
	*sp = frame[:0]
	scratchPool.Put(sp)
}
