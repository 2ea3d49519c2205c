package proto

import (
	"fmt"
	"reflect"
	"unsafe"

	"p2pmpi/internal/wire"
)

// Marshal encodes any proto message into a framed byte slice.
func Marshal(msg any) ([]byte, error) {
	return AppendMarshal(nil, msg)
}

// AppendMarshal encodes msg into dst (reusing its capacity) and returns
// the extended slice. With a caller-owned scratch buffer the encode is
// allocation-free steady-state, which is what the daemons' request/reply
// loops use: the simulated and TCP transports both copy the frame before
// returning from Send, so the scratch is immediately reusable.
//
// msg does not escape (error paths name its type through reflect, not
// fmt's %T), so a caller's message struct can live on its stack.
func AppendMarshal(dst []byte, msg any) ([]byte, error) {
	var e wire.Encoder
	if dst == nil {
		dst = make([]byte, 0, 64)
	}
	e.Reset(dst)
	switch m := msg.(type) {
	case *Register:
		e.U8(uint8(TRegister))
		m.Peer.encode(&e)
		e.Bool(m.Forced)
	case *PeerList:
		e.U8(uint8(TPeerList))
		e.Int(len(m.Peers))
		for _, p := range m.Peers {
			p.encode(&e)
		}
	case *Alive:
		e.U8(uint8(TAlive)).String(m.ID)
	case *AliveAck:
		e.U8(uint8(TAliveAck)).Bool(m.Known)
	case *FetchPeers:
		e.U8(uint8(TFetchPeers))
	case *Ping:
		e.U8(uint8(TPing)).U64(m.Nonce)
	case *Pong:
		e.U8(uint8(TPong)).U64(m.Nonce)
	case *Reserve:
		e.U8(uint8(TReserve)).String(m.Key).String(m.JobID)
		m.Submitter.encode(&e)
		e.Int(m.N)
	case *ReserveOK:
		e.U8(uint8(TReserveOK)).String(m.Key).Int(m.P)
	case *ReserveNOK:
		e.U8(uint8(TReserveNOK)).String(m.Key).String(m.Reason)
	case *Cancel:
		e.U8(uint8(TCancel)).String(m.Key)
	case *CancelAck:
		e.U8(uint8(TCancelAck)).String(m.Key)
	case *Prepare:
		e.U8(uint8(TPrepare)).String(m.Key).String(m.JobID).String(m.Program)
		e.StringSlice(m.Args)
		e.Int(m.N).Int(m.R)
		e.Int(len(m.Table))
		for _, s := range m.Table {
			s.encode(&e)
		}
		e.String(m.SubmitterMPD)
		e.Duration(m.Deadline)
		for _, a := range m.Algorithms {
			e.Int(a)
		}
		e.Bool(m.Preemptable)
	case *Ready:
		e.U8(uint8(TReady)).String(m.Key).Bool(m.OK).String(m.Reason)
	case *Start:
		e.U8(uint8(TStart)).String(m.Key)
	case *StartAck:
		e.U8(uint8(TStartAck)).String(m.Key)
	case *JobDone:
		e.U8(uint8(TJobDone)).String(m.JobID).String(m.HostID)
		e.Int(len(m.Results))
		for _, r := range m.Results {
			e.Int(r.Rank).Int(r.Replica).Bool(r.OK).String(r.Err).Blob(r.Output)
		}
	case *JobPing:
		e.U8(uint8(TJobPing)).U64(m.Nonce).String(m.JobID)
	case *JobPong:
		e.U8(uint8(TJobPong)).U64(m.Nonce).Bool(m.Known)
	case *Digest:
		e.U8(uint8(TDigest)).Int(m.From)
		e.Int(len(m.Versions))
		for _, v := range m.Versions {
			e.U64(v)
		}
	case *ShardDelta:
		return AppendShardDelta(dst, m.Shards, nil), nil
	case *ShardRedirect:
		e.U8(uint8(TShardRedirect)).Int(m.Shard).String(m.Addr)
	case *KillJob:
		e.U8(uint8(TKillJob)).String(m.Key)
	case *KillAck:
		e.U8(uint8(TKillAck)).String(m.Key)
	default:
		return nil, fmt.Errorf("proto: cannot marshal %v", reflect.TypeOf(msg))
	}
	return e.Bytes(), nil
}

// AppendShardDelta encodes a TShardDelta frame of states into dst,
// reusing its capacity as AppendMarshal does. A state whose held[i]
// (nil for none) recorded exactly its Peers and Seen arrays — the same
// backing, the same length — is written as its header and then the
// held wire form verbatim: a member forwarding a snapshot it decoded
// ships the bytes it received instead of encoding the values they
// became. Every other state is encoded, its entries copied from its
// Image when it carries one (the owner's own table: each entry's bytes
// and then its stamp) and encoded field by field otherwise.
func AppendShardDelta(dst []byte, states []ShardState, held []*Spans) []byte {
	var e wire.Encoder
	if dst == nil {
		dst = make([]byte, 0, 64)
	}
	e.Reset(dst)
	e.U8(uint8(TShardDelta))
	e.Int(len(states))
	for i := range states {
		s := &states[i]
		if i < len(held) && held[i].recorded(s.Peers, s.Seen) {
			e.Int(s.Shard).U64(s.Version).Varint(s.Stamp).Int(len(s.Peers)).Raw(held[i].wire)
			continue
		}
		appendShardState(&e, s)
	}
	return e.Bytes()
}

// appendShardState encodes one shard snapshot: header, then the entries
// with their parallel last-seen stamps, each entry copied from the
// state's image when it has one of the right length.
func appendShardState(e *wire.Encoder, s *ShardState) {
	e.Int(s.Shard)
	e.U64(s.Version)
	e.Varint(s.Stamp)
	e.Int(len(s.Peers))
	img := s.Image
	if img != nil && img.Len() != len(s.Peers) {
		img = nil
	}
	for i, p := range s.Peers {
		if img != nil {
			from, to := img.span(i)
			e.Raw(img.wire[from:to])
		} else {
			p.encode(e)
		}
		var seen int64
		if i < len(s.Seen) {
			seen = s.Seen[i]
		}
		e.Varint(seen)
	}
}

// PeerResolver lets the ShardDelta decoder hand out PeerInfo values the
// receiver already holds instead of building four strings per entry:
// an entry whose exact bytes the receiver decoded before costs one
// memory compare, and the others are read as views of the frame and
// matched before any string exists, so only a never-seen host
// allocates. A resolved entry always equals what the plain decode (a
// nil resolver) would have built.
//
// Each frame state is decoded beside Held[k], the snapshot of its shard
// it replaces. Snapshots are ID-sorted like the frame's entries, so one
// cursor walks the previous snapshot and finds every unchanged host
// without a lock or a map; a snapshot that is stale or unsorted only
// makes entries miss. The walk also records what changed (see
// Spans.Delta), so the receiver can fold in only that.
type PeerResolver struct {
	// Held[k], when set, is shard k's previous snapshot: its values
	// always, and its wire form when a decode recorded one. While the
	// frame's next bytes repeat the held entry's at the cursor — four
	// strings and stamp — the held value and stamp are handed back as
	// they are; any other entry is read field by field and matched at
	// the cursor, then by Lookup.
	Held []*Spans
	// Lookup, when set, resolves what the walk missed by raw wire fields.
	Lookup func(id, site, mpdAddr, rsAddr []byte) (PeerInfo, bool)
	// Spans[i] receives the wire form of the decoded Shards[i], reusing
	// the element's buffers: a receiver trades it along with that
	// state's Peers and Seen, and passes it back as Held.
	Spans []Spans
	// slow counts the entries the last decode read field by field.
	slow int
}

// Spans is one shard snapshot as a decoder holds it: the values, and —
// when a decode recorded them — a copy of the frame's entries region,
// where each entry (four strings and its stamp) ends, and the changes
// from the snapshot that decode was matched against. A decoder fills
// the wire form, so bytes and values agree as long as the holder leaves
// the values' arrays (the decoded state's Peers and Seen) untouched,
// which is how snapshots are kept anyway: replaced, never edited.
// HeldValues builds one without a wire form. The zero Spans holds
// nothing.
type Spans struct {
	wire  []byte
	ends  []int32
	peers []PeerInfo
	seen  []int64
	// gone and fresh are the recording decode's change lists: ascending
	// indices into the previous snapshot (base, baseSeen and baseLen
	// name its arrays) of the entries not repeated unchanged, and into
	// these values of the entries that are not a repeat.
	gone, fresh []int32
	base        *PeerInfo
	baseSeen    *int64
	baseLen     int
}

// HeldValues returns a Spans holding a snapshot's values and no wire
// form: a decode against it matches every entry field by field.
func HeldValues(peers []PeerInfo, seen []int64) Spans {
	return Spans{peers: peers, seen: seen}
}

// recorded reports whether h holds a wire form decoded into exactly
// these arrays.
func (h *Spans) recorded(peers []PeerInfo, seen []int64) bool {
	return h != nil && len(h.ends) == len(peers) && len(h.peers) == len(peers) && len(seen) == len(peers) &&
		unsafe.SliceData(h.peers) == unsafe.SliceData(peers) && unsafe.SliceData(h.seen) == unsafe.SliceData(seen)
}

// Delta returns what changed between the snapshot peers/seen and the
// one h was decoded into: gone lists, ascending, the indices of peers
// not repeated with the same value and stamp, and fresh the indices of
// h's values that are not such a repeat — a changed entry is in both.
// The snapshot minus gone equals h's values minus fresh, entry for
// entry. ok is false unless h was decoded against exactly these arrays
// (the same backing, the same length); the lists are h's, valid until
// it is decoded into again.
func (h *Spans) Delta(peers []PeerInfo, seen []int64) (gone, fresh []int32, ok bool) {
	if h.base != unsafe.SliceData(peers) || h.baseSeen != unsafe.SliceData(seen) || h.baseLen != len(peers) {
		return nil, nil, false
	}
	return h.gone, h.fresh, true
}

// skip consumes held entry j if its exact bytes come next in d.
func (h *Spans) skip(d *wire.Decoder, j int) bool {
	var from int32
	if j > 0 {
		from = h.ends[j-1]
	}
	return d.SkipPrefix(h.wire[from:h.ends[j]])
}

// DecodeShardDelta decodes a TShardDelta frame into m, reusing m's
// Shards array and whatever Peers/Seen capacity its elements hold (the
// gossip loop decodes every reply into the same scratch), and records
// each state's wire form and changes in r.Spans. A nil r decodes
// plainly. On error the contents of m and r.Spans are unspecified.
func (r *PeerResolver) DecodeShardDelta(b []byte, m *ShardDelta) error {
	d := wire.NewDecoder(b)
	if t := Type(d.U8()); t != TShardDelta {
		return fmt.Errorf("proto: expected sharddelta, got %v", t)
	}
	if r != nil {
		r.slow = 0
	}
	if !decodeShardDelta(d, m, r) {
		return wire.ErrCorrupt
	}
	return d.Finish()
}

// resize returns s with length n, keeping its backing when it fits.
func resize[T any](s []T, n int) []T {
	if c := cap(s); n > c {
		s = append(s[:c], make([]T, n-c)...)
	}
	return s[:n]
}

// decodeShardDelta decodes the body of a TShardDelta frame, validating
// every count against the remaining bytes.
func decodeShardDelta(d *wire.Decoder, m *ShardDelta, r *PeerResolver) bool {
	n := d.Int()
	if n < 0 || n > d.Remaining() {
		return false
	}
	m.Shards = resize(m.Shards, n)
	if r != nil {
		r.Spans = resize(r.Spans, n)
	}
	for i := range m.Shards {
		st := &m.Shards[i]
		st.Shard, st.Version, st.Stamp = d.Int(), d.U64(), d.Varint()
		st.Peers, st.Seen, st.Image = st.Peers[:0], st.Seen[:0], nil
		entries := d.Int()
		if entries < 0 || entries > d.Remaining() {
			return false
		}
		// Headroom: recycled buffers rotate between shards of slightly
		// different, growing sizes; exact fits would regrow every reply.
		c := entries + entries/8
		if cap(st.Peers) < entries || cap(st.Seen) < entries {
			st.Peers, st.Seen = make([]PeerInfo, 0, c), make([]int64, 0, c)
		}
		var held, out *Spans
		if r != nil {
			if k := st.Shard; k >= 0 && k < len(r.Held) {
				held = r.Held[k]
			}
			out = &r.Spans[i]
			if out.ends = out.ends[:0]; cap(out.ends) < entries {
				out.ends = make([]int32, 0, c)
			}
			out.gone, out.fresh = out.gone[:0], out.fresh[:0]
		}
		var prev []PeerInfo
		var prevSeen []int64
		wired := false
		if held != nil {
			prev, prevSeen, wired = held.peers, held.seen, len(held.ends) > 0
		}
		base, j := d.Offset(), 0 // j: the cursor into prev
		for at := 0; at < entries; at++ {
			if wired && j < len(held.ends) && held.skip(d, j) {
				st.Peers = append(st.Peers, prev[j])
				st.Seen = append(st.Seen, prevSeen[j])
				j++
			} else {
				id, site, mpdAddr, rsAddr := d.StringBytes(), d.StringBytes(), d.StringBytes(), d.StringBytes()
				for j < len(prev) && prev[j].ID < string(id) {
					if out != nil {
						out.gone = append(out.gone, int32(j))
					}
					j++
				}
				var p PeerInfo
				ok, match, hit := false, -1, false // match: the held entry of this ID
				if j < len(prev) && prev[j].ID == string(id) {
					if prev[j].Site == string(site) && prev[j].MPDAddr == string(mpdAddr) && prev[j].RSAddr == string(rsAddr) {
						p, ok, hit = prev[j], true, true
					}
					match = j
					j++
				}
				if !ok && r != nil && r.Lookup != nil {
					p, ok = r.Lookup(id, site, mpdAddr, rsAddr)
				}
				if !ok {
					p = PeerInfo{ID: string(id), Site: string(site), MPDAddr: string(mpdAddr), RSAddr: string(rsAddr)}
				}
				seen := d.Varint()
				st.Peers = append(st.Peers, p)
				st.Seen = append(st.Seen, seen)
				if r != nil {
					r.slow++
					// A repeat read field by field (no wire form held, or
					// one spelled differently) is no change.
					if !hit || match >= len(prevSeen) || seen != prevSeen[match] {
						if match >= 0 {
							out.gone = append(out.gone, int32(match))
						}
						out.fresh = append(out.fresh, int32(at))
					}
				}
			}
			if out != nil {
				out.ends = append(out.ends, int32(d.Offset()-base))
			}
		}
		if d.Err() != nil {
			return false
		}
		if out != nil {
			for ; j < len(prev); j++ {
				out.gone = append(out.gone, int32(j))
			}
			out.wire = append(out.wire[:0], d.Since(base)...)
			out.peers, out.seen = st.Peers, st.Seen
			out.base, out.baseSeen, out.baseLen = unsafe.SliceData(prev), unsafe.SliceData(prevSeen), len(prev)
		}
	}
	return true
}

// MustMarshal is Marshal for known-good messages; it panics on error.
func MustMarshal(msg any) []byte {
	b, err := Marshal(msg)
	if err != nil {
		panic(err)
	}
	return b
}

// Peek returns the type of a framed message without decoding it.
func Peek(b []byte) Type {
	if len(b) == 0 {
		return TInvalid
	}
	return Type(b[0])
}

// Unmarshal decodes one framed message, returning its type and a pointer
// to the decoded struct.
func Unmarshal(b []byte) (Type, any, error) {
	d := wire.NewDecoder(b)
	t := Type(d.U8())
	var msg any
	switch t {
	case TRegister:
		msg = &Register{Peer: decodePeerInfo(d), Forced: d.Bool()}
	case TPeerList:
		n := d.Int()
		if n < 0 || n > d.Remaining() {
			return t, nil, wire.ErrCorrupt
		}
		m := &PeerList{}
		if n > 0 {
			d.InternStrings() // one string copy for the whole host list
			m.Peers = make([]PeerInfo, 0, n)
		}
		for i := 0; i < n; i++ {
			m.Peers = append(m.Peers, decodePeerInfo(d))
		}
		msg = m
	case TAlive:
		msg = &Alive{ID: d.String()}
	case TAliveAck:
		msg = &AliveAck{Known: d.Bool()}
	case TFetchPeers:
		msg = &FetchPeers{}
	case TPing:
		msg = &Ping{Nonce: d.U64()}
	case TPong:
		msg = &Pong{Nonce: d.U64()}
	case TReserve:
		msg = &Reserve{Key: d.String(), JobID: d.String(),
			Submitter: decodePeerInfo(d), N: d.Int()}
	case TReserveOK:
		msg = &ReserveOK{Key: d.String(), P: d.Int()}
	case TReserveNOK:
		msg = &ReserveNOK{Key: d.String(), Reason: d.String()}
	case TCancel:
		msg = &Cancel{Key: d.String()}
	case TCancelAck:
		msg = &CancelAck{Key: d.String()}
	case TPrepare:
		d.InternStrings() // the table repeats host IDs and addresses
		m := &Prepare{Key: d.String(), JobID: d.String(), Program: d.String(),
			Args: d.StringSlice(), N: d.Int(), R: d.Int()}
		n := d.Int()
		if n < 0 || n > d.Remaining() {
			return t, nil, wire.ErrCorrupt
		}
		if n > 0 {
			m.Table = make([]Slot, 0, n)
		}
		for i := 0; i < n; i++ {
			m.Table = append(m.Table, decodeSlot(d))
		}
		m.SubmitterMPD = d.String()
		m.Deadline = d.Duration()
		for i := range m.Algorithms {
			m.Algorithms[i] = d.Int()
		}
		m.Preemptable = d.Bool()
		msg = m
	case TReady:
		msg = &Ready{Key: d.String(), OK: d.Bool(), Reason: d.String()}
	case TStart:
		msg = &Start{Key: d.String()}
	case TStartAck:
		msg = &StartAck{Key: d.String()}
	case TJobDone:
		m := &JobDone{JobID: d.String(), HostID: d.String()}
		n := d.Int()
		if n < 0 || n > d.Remaining()+1 {
			return t, nil, wire.ErrCorrupt
		}
		if n > 0 {
			m.Results = make([]SlotResult, 0, n)
		}
		for i := 0; i < n; i++ {
			m.Results = append(m.Results, SlotResult{
				Rank: d.Int(), Replica: d.Int(), OK: d.Bool(),
				Err: d.String(), Output: d.Blob(),
			})
		}
		msg = m
	case TJobPing:
		msg = &JobPing{Nonce: d.U64(), JobID: d.String()}
	case TJobPong:
		msg = &JobPong{Nonce: d.U64(), Known: d.Bool()}
	case TDigest:
		m := &Digest{From: d.Int()}
		n := d.Int()
		if n < 0 || n > d.Remaining() {
			return t, nil, wire.ErrCorrupt
		}
		if n > 0 {
			m.Versions = make([]uint64, 0, n)
		}
		for i := 0; i < n; i++ {
			m.Versions = append(m.Versions, d.U64())
		}
		msg = m
	case TShardDelta:
		m := &ShardDelta{}
		if !decodeShardDelta(d, m, nil) {
			return t, nil, wire.ErrCorrupt
		}
		msg = m
	case TShardRedirect:
		msg = &ShardRedirect{Shard: d.Int(), Addr: d.String()}
	case TKillJob:
		msg = &KillJob{Key: d.String()}
	case TKillAck:
		msg = &KillAck{Key: d.String()}
	default:
		return t, nil, fmt.Errorf("proto: unknown message type %d", uint8(t))
	}
	if err := d.Finish(); err != nil {
		return t, nil, err
	}
	return t, msg, nil
}

// PeerEntry is one host-list entry viewed in place: every field aliases
// the frame and is valid only while the frame is.
type PeerEntry struct {
	ID, Site, MPDAddr, RSAddr []byte
}

// Info builds the entry's PeerInfo with one allocation: the four
// strings share one exact-length copy.
func (e PeerEntry) Info() PeerInfo {
	b := make([]byte, 0, len(e.ID)+len(e.Site)+len(e.MPDAddr)+len(e.RSAddr))
	b = append(append(append(append(b, e.ID...), e.Site...), e.MPDAddr...), e.RSAddr...)
	s := unsafe.String(unsafe.SliceData(b), len(b))
	i, j, k := len(e.ID), len(e.ID)+len(e.Site), len(b)-len(e.RSAddr)
	return PeerInfo{ID: s[:i], Site: s[i:j], MPDAddr: s[j:k], RSAddr: s[k:]}
}

// PeerListReader walks a TPeerList frame entry by entry without
// building a string. ReadPeerList validates the whole frame first, so a
// walk never meets a decode error half-way and a receiver can merge as
// it reads. It is the one host-list decoder of the daemons.
type PeerListReader struct {
	d    wire.Decoder
	left int
}

// ReadPeerList validates a TPeerList frame and returns a reader
// positioned on its first entry.
func ReadPeerList(b []byte) (PeerListReader, error) {
	d := wire.NewDecoder(b)
	if t := Type(d.U8()); t != TPeerList {
		return PeerListReader{}, fmt.Errorf("proto: expected peerlist, got %v", t)
	}
	n := d.Int()
	if n < 0 || n > d.Remaining() {
		return PeerListReader{}, wire.ErrCorrupt
	}
	start := d.Offset()
	d.SkipStrings(4 * n)
	if err := d.Finish(); err != nil {
		return PeerListReader{}, err
	}
	return PeerListReader{d: *wire.NewDecoder(b[start:]), left: n}, nil
}

// Len returns the number of entries not yet read.
func (r *PeerListReader) Len() int { return r.left }

// Next views the next entry; ok is false past the last one.
func (r *PeerListReader) Next() (e PeerEntry, ok bool) {
	if r.left == 0 {
		return PeerEntry{}, false
	}
	r.left--
	e.ID, e.Site, e.MPDAddr, e.RSAddr = r.d.StringBytes(), r.d.StringBytes(), r.d.StringBytes(), r.d.StringBytes()
	return e, true
}

// DecodeInto decodes a frame into a caller-provided message struct,
// reusing its allocations: string fields keep their existing backing
// when the decoded bytes match (see wire.Decoder.StringInto), so
// decoding a stream of stable values — heartbeats, handshake echoes —
// into a reused struct is allocation-free steady-state. Only the
// fixed-shape control messages are supported; list-carrying frames
// (PeerList, Prepare, JobDone) go through Unmarshal. Like AppendMarshal,
// it does not let msg escape.
func DecodeInto(b []byte, msg any) error {
	d := wire.NewDecoder(b)
	t := Type(d.U8())
	var want Type
	switch m := msg.(type) {
	case *Ping:
		if want = TPing; t == want {
			m.Nonce = d.U64()
		}
	case *Pong:
		if want = TPong; t == want {
			m.Nonce = d.U64()
		}
	case *Alive:
		if want = TAlive; t == want {
			d.StringInto(&m.ID)
		}
	case *AliveAck:
		if want = TAliveAck; t == want {
			m.Known = d.Bool()
		}
	case *FetchPeers:
		want = TFetchPeers
	case *ShardRedirect:
		if want = TShardRedirect; t == want {
			m.Shard = d.Int()
			d.StringInto(&m.Addr)
		}
	case *ReserveOK:
		if want = TReserveOK; t == want {
			d.StringInto(&m.Key)
			m.P = d.Int()
		}
	case *ReserveNOK:
		if want = TReserveNOK; t == want {
			d.StringInto(&m.Key)
			d.StringInto(&m.Reason)
		}
	case *Cancel:
		if want = TCancel; t == want {
			d.StringInto(&m.Key)
		}
	case *CancelAck:
		if want = TCancelAck; t == want {
			d.StringInto(&m.Key)
		}
	case *Ready:
		if want = TReady; t == want {
			d.StringInto(&m.Key)
			m.OK = d.Bool()
			d.StringInto(&m.Reason)
		}
	case *Start:
		if want = TStart; t == want {
			d.StringInto(&m.Key)
		}
	case *StartAck:
		if want = TStartAck; t == want {
			d.StringInto(&m.Key)
		}
	case *JobPing:
		if want = TJobPing; t == want {
			m.Nonce = d.U64()
			d.StringInto(&m.JobID)
		}
	case *JobPong:
		if want = TJobPong; t == want {
			m.Nonce = d.U64()
			m.Known = d.Bool()
		}
	case *KillJob:
		if want = TKillJob; t == want {
			d.StringInto(&m.Key)
		}
	case *KillAck:
		if want = TKillAck; t == want {
			d.StringInto(&m.Key)
		}
	default:
		return fmt.Errorf("proto: DecodeInto does not support %v", reflect.TypeOf(msg))
	}
	if t != want {
		return fmt.Errorf("proto: frame is %v, not the expected type for %v", t, reflect.TypeOf(msg))
	}
	return d.Finish()
}
