package proto

import (
	"fmt"

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
		e.U8(uint8(TShardDelta))
		e.Int(len(m.Shards))
		for i := range m.Shards {
			appendShardState(&e, &m.Shards[i])
		}
	case *ShardRedirect:
		e.U8(uint8(TShardRedirect)).Int(m.Shard).String(m.Addr)
	case *KillJob:
		e.U8(uint8(TKillJob)).String(m.Key)
	case *KillAck:
		e.U8(uint8(TKillAck)).String(m.Key)
	default:
		return nil, fmt.Errorf("proto: cannot marshal %T", msg)
	}
	return e.Bytes(), nil
}

// AppendPeerListFrame encodes a TPeerList frame of count entries taken
// from peers starting at index start (wrapping modulo len(peers)),
// straight from the caller's table — no intermediate []PeerInfo copy,
// no allocation when dst has capacity. This is the supernode's reply
// builder: on a multi-thousand-host world every Register and FetchPeers
// answer is an O(world) frame, and building it used to copy the table
// twice per reply.
func AppendPeerListFrame(dst []byte, peers []PeerInfo, start, count int) []byte {
	var e wire.Encoder
	e.Reset(dst)
	e.U8(uint8(TPeerList))
	e.Int(count)
	if count > 0 {
		n := len(peers)
		for i := 0; i < count; i++ {
			peers[(start+i)%n].encode(&e)
		}
	}
	return e.Bytes()
}

// appendShardState encodes one shard snapshot: header, then the entries
// with their parallel last-seen stamps.
func appendShardState(e *wire.Encoder, s *ShardState) {
	e.Int(s.Shard)
	e.U64(s.Version)
	e.Varint(s.Stamp)
	e.Int(len(s.Peers))
	for i, p := range s.Peers {
		p.encode(e)
		var seen int64
		if i < len(s.Seen) {
			seen = s.Seen[i]
		}
		e.Varint(seen)
	}
}

// PeerResolver lets the ShardDelta decoder hand out PeerInfo values the
// receiver already holds instead of building four strings per entry:
// the fields are read as views of the frame and matched before any
// string exists, so only a never-seen host allocates. A resolved entry
// always equals what the plain decode (a nil resolver) would have built.
type PeerResolver struct {
	// Hints[k], when present, is the receiver's current snapshot of shard
	// k. Snapshots are ID-sorted like the frame's entries, so a merge-walk
	// finds every unchanged host without a lock or a map; a hint that is
	// stale or unsorted only makes entries miss.
	Hints [][]PeerInfo
	// Lookup, when set, resolves what the walk missed by raw wire fields.
	Lookup func(id, site, mpdAddr, rsAddr []byte) (PeerInfo, bool)
}

// DecodeShardDelta decodes a TShardDelta frame into m, reusing m's
// Shards array and whatever Peers/Seen capacity its elements hold (the
// gossip loop decodes every reply into the same scratch). A nil r
// decodes plainly. On error m's contents are unspecified.
func (r *PeerResolver) DecodeShardDelta(b []byte, m *ShardDelta) error {
	d := wire.NewDecoder(b)
	if t := Type(d.U8()); t != TShardDelta {
		return fmt.Errorf("proto: expected sharddelta, got %v", t)
	}
	if !decodeShardDelta(d, m, r) {
		return wire.ErrCorrupt
	}
	return d.Finish()
}

// decodeShardDelta decodes the body of a TShardDelta frame, validating
// every count against the remaining bytes.
func decodeShardDelta(d *wire.Decoder, m *ShardDelta, r *PeerResolver) bool {
	n := d.Int()
	if n < 0 || n > d.Remaining() {
		return false
	}
	if c := cap(m.Shards); n > c {
		m.Shards = append(m.Shards[:c], make([]ShardState, n-c)...)
	}
	m.Shards = m.Shards[:n]
	for i := range m.Shards {
		st := &m.Shards[i]
		st.Shard, st.Version, st.Stamp = d.Int(), d.U64(), d.Varint()
		st.Peers, st.Seen = st.Peers[:0], st.Seen[:0]
		entries := d.Int()
		if entries < 0 || entries > d.Remaining() {
			return false
		}
		if cap(st.Peers) < entries || cap(st.Seen) < entries {
			// Headroom: recycled buffers rotate between shards of slightly
			// different, growing sizes; exact fits would regrow every reply.
			c := entries + entries/8
			st.Peers, st.Seen = make([]PeerInfo, 0, c), make([]int64, 0, c)
		}
		var hint []PeerInfo
		if r != nil && st.Shard >= 0 && st.Shard < len(r.Hints) {
			hint = r.Hints[st.Shard]
		}
		for ; entries > 0; entries-- {
			id, site, mpdAddr, rsAddr := d.StringBytes(), d.StringBytes(), d.StringBytes(), d.StringBytes()
			for len(hint) > 0 && hint[0].ID < string(id) {
				hint = hint[1:]
			}
			var p PeerInfo
			ok := false
			if len(hint) > 0 && hint[0].ID == string(id) && hint[0].Site == string(site) &&
				hint[0].MPDAddr == string(mpdAddr) && hint[0].RSAddr == string(rsAddr) {
				p, ok = hint[0], true
			} else if r != nil && r.Lookup != nil {
				p, ok = r.Lookup(id, site, mpdAddr, rsAddr)
			}
			if !ok {
				p = PeerInfo{ID: string(id), Site: string(site), MPDAddr: string(mpdAddr), RSAddr: string(rsAddr)}
			}
			st.Peers = append(st.Peers, p)
			st.Seen = append(st.Seen, d.Varint())
		}
		if d.Err() != nil {
			return false
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

// UnmarshalPeerList decodes a TPeerList frame, appending the entries to
// dst (reusing its capacity) and returning the extended slice. Hot
// membership paths use it with a pooled scratch slice so a cache
// refresh on a multi-thousand-host world does not allocate a fresh
// O(world) slice per reply.
func UnmarshalPeerList(b []byte, dst []PeerInfo) ([]PeerInfo, error) {
	return UnmarshalPeerListLimited(b, dst, -1)
}

// UnmarshalPeerListLimited is UnmarshalPeerList materializing only the
// first limit entries (all of them when limit is negative): the result
// is the full decode's prefix and the error the full decode's error,
// because the entries past the limit are still validated structurally —
// a truncated or trailing-garbage reply fails whatever the limit. A
// receiver that will keep two entries of a 512-entry window does not
// build the other 2040 strings.
func UnmarshalPeerListLimited(b []byte, dst []PeerInfo, limit int) ([]PeerInfo, error) {
	d := wire.NewDecoder(b)
	if t := Type(d.U8()); t != TPeerList {
		return dst, fmt.Errorf("proto: expected peerlist, got %v", t)
	}
	n := d.Int()
	if n < 0 || n > d.Remaining() {
		return dst, wire.ErrCorrupt
	}
	if limit < 0 || limit >= n {
		limit = n
		d.InternStrings() // one string copy for the whole host list
	}
	for i := 0; i < limit; i++ {
		dst = append(dst, decodePeerInfo(d))
	}
	for i := 4 * (n - limit); i > 0; i-- {
		d.StringBytes()
	}
	return dst, d.Finish()
}

// DecodeInto decodes a frame into a caller-provided message struct,
// reusing its allocations: string fields keep their existing backing
// when the decoded bytes match (see wire.Decoder.StringInto), so
// decoding a stream of stable values — heartbeats, handshake echoes —
// into a reused struct is allocation-free steady-state. Only the
// fixed-shape control messages are supported; list-carrying frames
// (PeerList, Prepare, JobDone) go through Unmarshal.
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
		return fmt.Errorf("proto: DecodeInto does not support %T", msg)
	}
	if t != want {
		return fmt.Errorf("proto: frame is %v, not the expected type for %T", t, msg)
	}
	return d.Finish()
}
