package proto

import (
	"slices"
	"sync/atomic"

	"p2pmpi/internal/wire"
)

// PeerImage is the wire image of an ID-sorted peer table, kept beside
// its values: the encoding of every entry (its four length-prefixed
// strings) concatenated in table order, and where each entry ends. A
// table whose bytes change far less often than they are sent — the
// supernode's owned table and merged view, which every host-list and
// gossip reply carries — keeps its image in step with each edit, and a
// reply copies bytes instead of encoding strings. The zero PeerImage is
// the image of an empty table.
//
// An image also keeps the whole table's TPeerList frame once asked for
// it (Frame), so that an unchanged table is sent as one shared frame
// rather than copied per reply. The frame is immutable: receivers may
// hold it long after it was sent, so an edit drops it and never writes
// into it. A PeerImage must not be copied by value.
type PeerImage struct {
	wire []byte
	ends []int32
	// tmp holds the entry being spliced in, so an edit allocates only
	// when the image grows.
	tmp []byte
	// frame is the whole-table frame, nil until built. It is atomic
	// because the interner's canonical image, which nobody edits, is
	// shared by federation members that run on different shards.
	frame atomic.Pointer[[]byte]
}

// Frame returns the TPeerList frame of the whole table, the frame
// AppendPeerListImage(nil, m, 0, m.Len()) would write, as an immutable
// slice shared by every caller until the next edit. Safe for concurrent
// use on an image nobody edits.
func (m *PeerImage) Frame() []byte {
	if f := m.frame.Load(); f != nil {
		return *f
	}
	f := AppendPeerListImage(nil, m, 0, m.Len())
	if !m.frame.CompareAndSwap(nil, &f) {
		return *m.frame.Load() // another caller built the same bytes first
	}
	return f
}

// edited drops the frame: the next one is built from the new table, in
// a new buffer.
func (m *PeerImage) edited() { m.frame.Store(nil) }

// Len returns the number of entries.
func (m *PeerImage) Len() int { return len(m.ends) }

// span returns where entry i starts and ends in wire.
func (m *PeerImage) span(i int) (from, to int) {
	if i > 0 {
		from = int(m.ends[i-1])
	}
	return from, int(m.ends[i])
}

// encodeTmp encodes p into the splice scratch and returns its length.
func (m *PeerImage) encodeTmp(p PeerInfo) int {
	var e wire.Encoder
	p.encode(e.Reset(m.tmp))
	m.tmp = e.Bytes()
	return len(m.tmp)
}

// shiftEnds moves the ends of entries i and later by delta bytes.
func (m *PeerImage) shiftEnds(i, delta int) {
	for j := i; j < len(m.ends); j++ {
		m.ends[j] += int32(delta)
	}
}

// Insert inserts p's encoding as entry i, 0 ≤ i ≤ Len().
func (m *PeerImage) Insert(i int, p PeerInfo) {
	from := len(m.wire)
	if i < len(m.ends) {
		from, _ = m.span(i)
	}
	n := m.encodeTmp(p)
	m.edited()
	m.wire = slices.Insert(m.wire, from, m.tmp...)
	m.ends = slices.Insert(m.ends, i, int32(from+n))
	m.shiftEnds(i+1, n)
}

// Set replaces entry i with p's encoding.
func (m *PeerImage) Set(i int, p PeerInfo) {
	from, to := m.span(i)
	n := m.encodeTmp(p)
	m.edited()
	m.wire = slices.Replace(m.wire, from, to, m.tmp...)
	m.shiftEnds(i, n-(to-from))
}

// Remove deletes entry i.
func (m *PeerImage) Remove(i int) {
	from, to := m.span(i)
	m.edited()
	m.wire = slices.Delete(m.wire, from, to)
	m.ends = slices.Delete(m.ends, i, i+1)
	m.shiftEnds(i, from-to)
}

// Reset makes m the image of peers, reusing its buffers.
func (m *PeerImage) Reset(peers []PeerInfo) {
	m.edited()
	var e wire.Encoder
	e.Reset(m.wire)
	m.ends = m.ends[:0]
	for _, p := range peers {
		p.encode(&e)
		m.ends = append(m.ends, int32(e.Len()))
	}
	m.wire = e.Bytes()
}

// CopyFrom makes m a copy of src, reusing m's buffers when they fit and
// allocating exactly src's size when they do not.
func (m *PeerImage) CopyFrom(src *PeerImage) {
	m.edited()
	m.wire = append(resizeExact(m.wire, len(src.wire)), src.wire...)
	m.ends = append(resizeExact(m.ends, len(src.ends)), src.ends...)
}

// resizeExact returns s emptied, with room for n elements: its own
// backing when that fits, else one of exactly n.
func resizeExact[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Encodes reports whether m is exactly the image of peers, entry ends
// included: the audit that an image was kept in step with its table.
func (m *PeerImage) Encodes(peers []PeerInfo) bool {
	var want PeerImage
	want.Reset(peers)
	return slices.Equal(m.wire, want.wire) && slices.Equal(m.ends, want.ends)
}

// AppendPeerListImage writes into dst the TPeerList frame of count
// entries of the table img is the image of, starting at index start and
// wrapping modulo its length: the header, then the window's entries
// copied from the image. A window of at most the whole table wraps at
// most once, so its entries are one or two copies.
func AppendPeerListImage(dst []byte, img *PeerImage, start, count int) []byte {
	var e wire.Encoder
	e.Reset(dst)
	e.U8(uint8(TPeerList))
	e.Int(count)
	if n := img.Len(); count > 0 && n > 0 {
		for at := start % n; count > 0; at = 0 {
			k := min(count, n-at)
			from, _ := img.span(at)
			_, to := img.span(at + k - 1)
			e.Raw(img.wire[from:to])
			count -= k
		}
	}
	return e.Bytes()
}
