package proto

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"p2pmpi/internal/wire"
)

// The decoders sit on the untrusted edge of the daemons: every frame a
// supernode or MPD receives goes through Unmarshal, ReadPeerList,
// DecodeShardDelta or DecodeInto before anything else looks at it (and
// bench/ still decodes host lists whole with UnmarshalPeerList). The
// fuzz targets pin the two safety properties the pooled zero-alloc
// paths depend on:
//
//   - malformed frames error out; they never panic (no slice
//     over-reads, no unbounded make() from a hostile length prefix);
//   - decoded values never alias the input buffer, because receivers
//     release frames back to pooled transport buffers right after
//     decoding — an aliasing decode would corrupt silently when the
//     buffer is recycled.

// corpusFrames returns one well-formed frame per message type,
// including the federation frames, so the seed corpus reaches every
// decoder arm.
func corpusFrames() [][]byte {
	pi := PeerInfo{ID: "c01-1.s01", Site: "s01", MPDAddr: "c01-1.s01:9000", RSAddr: "c01-1.s01:9001"}
	msgs := []any{
		&Register{Peer: pi, Forced: true},
		&PeerList{Peers: []PeerInfo{pi, {ID: "b"}}},
		&Alive{ID: "c01-1.s01"},
		&AliveAck{Known: true},
		&FetchPeers{},
		&Ping{Nonce: 7}, &Pong{Nonce: 7},
		&Reserve{Key: "k", JobID: "j", Submitter: pi, N: 4},
		&ReserveOK{Key: "k", P: 2},
		&ReserveNOK{Key: "k", Reason: "full"},
		&Cancel{Key: "k"}, &CancelAck{Key: "k"},
		&Prepare{Key: "k", JobID: "j", Program: "hostname", Args: []string{"a"},
			N: 1, R: 1, Table: []Slot{{Rank: 0, Replica: 0, Global: 0, HostID: pi.ID, Addr: "a:1"}},
			SubmitterMPD: "f:9000", Preemptable: true},
		&Ready{Key: "k", OK: true},
		&Start{Key: "k"}, &StartAck{Key: "k"},
		&JobDone{JobID: "j", HostID: pi.ID, Results: []SlotResult{{OK: true, Output: []byte("x")}}},
		&JobPing{Nonce: 9, JobID: "j"}, &JobPong{Nonce: 9, Known: true},
		&Digest{From: 2, Versions: []uint64{3, 0, 9, 1}},
		&ShardDelta{Shards: []ShardState{{
			Shard: 1, Version: 9, Stamp: 123456789,
			Peers: []PeerInfo{pi}, Seen: []int64{42},
		}}},
		&ShardRedirect{Shard: 3, Addr: "snfed04.s02:8800"},
		&KillJob{Key: "k"}, &KillAck{Key: "k"},
	}
	out := make([][]byte, 0, len(msgs)+1)
	for _, m := range msgs {
		out = append(out, MustMarshal(m))
	}
	return append(out, olderPeerPrepare())
}

// olderPeerPrepare frames pinnedPrepare as a peer that still sent the
// five collective selectors would: the reserved varints read 1, 0, 1,
// 1, 200. Nothing ever range-checked them, and 200 takes two bytes, so
// a decoder must skip varints, not bytes.
func olderPeerPrepare() []byte {
	frame := MustMarshal(pinnedPrepare())
	var e wire.Encoder
	e.Raw(frame[:len(frame)-preparedReserved-1]) // drop reserved + Preemptable
	for _, v := range []int{1, 0, 1, 1, 200} {
		e.Int(v)
	}
	return e.Bool(true).Bytes()
}

// FuzzUnmarshal: any byte string either decodes or errors — no panics —
// and whatever decodes must survive the input buffer being clobbered
// (no aliasing of the frame).
func FuzzUnmarshal(f *testing.F) {
	for _, frame := range corpusFrames() {
		f.Add(frame)
		if len(frame) > 1 {
			f.Add(frame[:len(frame)-1]) // truncation
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		_, msg, err := Unmarshal(buf)
		if err != nil {
			return
		}
		// Re-marshal, clobber the input, re-marshal again: a decode that
		// aliased buf would change its encoding.
		first, merr := Marshal(msg)
		if merr != nil {
			t.Fatalf("decoded %T does not re-marshal: %v", msg, merr)
		}
		firstCopy := append([]byte(nil), first...)
		for i := range buf {
			buf[i] ^= 0xff
		}
		second, merr := Marshal(msg)
		if merr != nil {
			t.Fatalf("re-marshal after clobber: %v", merr)
		}
		if !bytes.Equal(firstCopy, second) {
			t.Fatalf("decoded %T aliases its input buffer:\nbefore clobber %x\nafter  clobber %x",
				msg, firstCopy, second)
		}
	})
}

// modelPeerList is the naive host-list decoder ReadPeerList is held
// to: the type byte, the count, four String reads per entry, and no
// byte left over.
func modelPeerList(b []byte) (l []PeerInfo, err error) {
	d := wire.NewDecoder(b)
	if t, n := Type(d.U8()), d.Int(); t == TPeerList && n >= 0 {
		for ; n > 0 && d.Err() == nil; n-- {
			l = append(l, PeerInfo{ID: d.String(), Site: d.String(), MPDAddr: d.String(), RSAddr: d.String()})
		}
		return l, d.Finish()
	}
	return nil, wire.ErrCorrupt
}

// FuzzReadPeerList: for any bytes, ReadPeerList and the model agree —
// both fail, or both succeed with the same entries — and the entries'
// Info values survive the frame being clobbered (no aliasing: receivers
// release frames to pooled buffers). It catches a reader that accepts
// one trailing byte.
func FuzzReadPeerList(f *testing.F) {
	pi := PeerInfo{ID: "c01-1.s01", Site: "s01", MPDAddr: "m:9000", RSAddr: "r:9001"}
	full := MustMarshal(&PeerList{Peers: []PeerInfo{pi, {ID: "b", Site: "s02"}, {ID: "c"}}})
	f.Add(full)
	f.Add(full[:len(full)-2])               // truncated inside the last entry
	f.Add(append(slices.Clone(full), 0x00)) // trailing garbage
	f.Add(MustMarshal(&PeerList{}))
	f.Add([]byte{uint8(TPeerList), 0x7f}) // huge count prefix
	f.Add([]byte{uint8(TAlive)})          // wrong type
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := modelPeerList(data)
		buf := slices.Clone(data)
		r, err := ReadPeerList(buf)
		if (err == nil) != (werr == nil) || r.Len() != len(want) && err == nil {
			t.Fatalf("ReadPeerList: %d entries, error %v; the model: %d entries, error %v", r.Len(), err, len(want), werr)
		}
		var got []PeerInfo
		for e, ok := r.Next(); ok; e, ok = r.Next() {
			got = append(got, e.Info())
		}
		for i := range buf {
			buf[i] ^= 0xff // what Info built must not alias the frame
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("ReadPeerList read %+v (the frame clobbered since), the model %+v", got, want)
		}
	})
}

// FuzzUnmarshalPeerList: the whole-list decode (pooled scratch) must
// reject garbage without panicking and without aliasing, and the
// in-place reader (ReadPeerList) must fail exactly when it does and
// otherwise view the same entries.
func FuzzUnmarshalPeerList(f *testing.F) {
	pi := PeerInfo{ID: "c01-1.s01", Site: "s01", MPDAddr: "m:9000", RSAddr: "r:9001"}
	f.Add(MustMarshal(&PeerList{Peers: []PeerInfo{pi, {ID: "b", Site: "s02"}}}))
	f.Add(MustMarshal(&PeerList{}))
	f.Add([]byte{uint8(TPeerList), 0x7f}) // huge count prefix
	f.Add([]byte{uint8(TAlive)})          // wrong type
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		scratch := make([]PeerInfo, 0, 4)
		peers, err := UnmarshalPeerList(buf, scratch)
		r, rerr := ReadPeerList(buf)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("UnmarshalPeerList error %v, ReadPeerList error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if r.Len() != len(peers) {
			t.Fatalf("ReadPeerList sees %d entries, UnmarshalPeerList %d", r.Len(), len(peers))
		}
		for i := 0; ; i++ {
			e, ok := r.Next()
			if !ok {
				break
			}
			if got := e.Info(); got != peers[i] {
				t.Fatalf("entry %d reads %+v in place, %+v decoded", i, got, peers[i])
			}
		}
		snapshot := append([]PeerInfo(nil), peers...)
		for i := range buf {
			buf[i] ^= 0xff
		}
		for i := range peers {
			if peers[i] != snapshot[i] {
				t.Fatalf("peer %d aliases the input buffer: %+v != %+v", i, peers[i], snapshot[i])
			}
		}
	})
}

// FuzzUnmarshalPeerListLimited: keeping only a prefix changes nothing
// observable. A receiver that walks ReadPeerList for its first limit
// entries (as the cache's queued branch does) gets the full decode's
// prefix and the full decode's error for every limit, so one that keeps
// two entries still rejects exactly the replies it rejected when it
// decoded them all.
func FuzzUnmarshalPeerListLimited(f *testing.F) {
	pi := PeerInfo{ID: "c01-1.s01", Site: "s01", MPDAddr: "m:9000", RSAddr: "r:9001"}
	full := MustMarshal(&PeerList{Peers: []PeerInfo{pi, {ID: "b", Site: "s02"}, {ID: "c"}}})
	f.Add(full)
	f.Add(full[:len(full)-2])               // truncated inside the last entry
	f.Add(append(slices.Clone(full), 0x00)) // trailing garbage
	f.Add(MustMarshal(&PeerList{}))
	f.Add([]byte{uint8(TPeerList), 0x7f})
	f.Add([]byte{uint8(TAlive)})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := UnmarshalPeerList(data, nil)
		n := len(want)
		limits := []int{-1, n - 1, n, n + 1}
		for l := 0; l <= n && l <= 8; l++ {
			limits = append(limits, l)
		}
		for _, limit := range limits {
			r, err := ReadPeerList(data)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("limit %d: error %v, full decode's %v", limit, err, wantErr)
			}
			got := make([]PeerInfo, 0, 2)
			for e, ok := r.Next(); ok && (limit < 0 || len(got) < limit); e, ok = r.Next() {
				got = append(got, e.Info())
			}
			keep := n
			if limit >= 0 && limit < n {
				keep = limit
			}
			if err == nil && !slices.Equal(got, want[:keep]) {
				t.Fatalf("limit %d: read %+v, want the prefix %+v", limit, got, want[:keep])
			}
		}
	})
}

// FuzzShardDeltaResolved: resolving entries against held snapshots and
// a lookup is invisible, the changes the decoder reports are exact, and
// forwarding held bytes ships the same values. For any frame, whatever
// each shard's held snapshot is — its values alone (the previous
// snapshot, a reordered, stale, duplicated or lying one, or none) or
// the recorded spans of a sibling (the same snapshot, one with an
// entry inserted, removed or changed, one stamp changed, one cut
// short) — and with a pre-populated lookup, the resolved decode into
// dirty scratch returns the plain decode's value or the plain decode's
// error, rejects exactly the frames Unmarshal rejects, and aliases
// neither the frame nor (observably) the held values. Each state's
// change lists are relative to its held snapshot, and that snapshot
// minus gone equals the state minus fresh, stamps included. The spans
// that decode records, held for a second decode of the same frame,
// give the plain value again, and forwarded with the states they were
// recorded into they decode to the plain value — byte for byte the
// plain re-encoding when the frame was our encoder's. The decoded
// states encoded from wire images of their entries are the plain
// re-encoding too, and decode to the plain value.
func FuzzShardDeltaResolved(f *testing.F) {
	for _, frame := range corpusFrames() {
		f.Add(frame, []byte{0, 1, 2, 3, 4})
	}
	pi := func(id string) PeerInfo {
		return PeerInfo{ID: id, Site: "s", MPDAddr: id + ":9000", RSAddr: id + ":9001"}
	}
	two := MustMarshal(&ShardDelta{Shards: []ShardState{
		{Shard: 0, Version: 3, Stamp: 7, Peers: []PeerInfo{pi("a"), pi("b"), pi("d")}, Seen: []int64{1, 2, 3}},
		{Shard: 2, Version: 1, Peers: []PeerInfo{pi("c"), pi("e")}, Seen: []int64{4, 5}},
		{Shard: 0, Version: 4, Peers: []PeerInfo{pi("b")}, Seen: []int64{9}}, // same shard twice
	}})
	for _, modes := range [][]byte{{0}, {1}, {2}, {3}, {4}, {2, 0, 3}} {
		f.Add(two, modes)
	}
	f.Add(two[:len(two)-3], []byte{0})
	f.Add(append(slices.Clone(two), 0xff), []byte{3})
	// A mode byte m bends shard i's held values by m%5 and picks its
	// recorded spans, which supersede them, by m/5%7 (see heldSibling),
	// so the seeds above hold values only and reach every bend; {3}
	// compares the same-ID impostor. These hold spans, the first shard's
	// changed entry (mode 4) an impostor too.
	for held := byte(1); held < 7; held++ {
		f.Add(two, []byte{5 * held, 5*held + 3, 0})
	}
	// One shard long enough for every sibling to differ mid-list, so each
	// kind of change reaches the delta lists beside unchanged entries.
	six := ShardState{Shard: 1, Version: 2, Stamp: 5}
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		six.Peers = append(six.Peers, pi(id))
		six.Seen = append(six.Seen, int64(len(six.Seen)+10))
	}
	for held := byte(1); held < 7; held++ {
		f.Add(MustMarshal(&ShardDelta{Shards: []ShardState{six}}), []byte{5 * held})
	}
	f.Fuzz(func(t *testing.T, data, modes []byte) {
		buf := slices.Clone(data)
		typ, plainMsg, plainErr := Unmarshal(buf)
		plain, _ := plainMsg.(*ShardDelta)

		// Held snapshots and lookup table derived from what the frame
		// really holds, then bent per shard by the fuzzed mode bytes. The
		// spans are recorded honestly: by decoding a sibling frame.
		r := &PeerResolver{Held: make([]*Spans, 4)}
		known := map[string]PeerInfo{"ghost": pi("ghost")}
		if plain != nil {
			var siblings ShardDelta
			for i, st := range plain.Shards {
				if st.Shard < 0 || st.Shard >= len(r.Held) {
					continue
				}
				mode := byte(0)
				if len(modes) > 0 {
					mode = modes[i%len(modes)]
				}
				if sib, ok := heldSibling(st, mode/5%7); ok {
					siblings.Shards = append(siblings.Shards, sib)
				}
				hint, seen := slices.Clone(st.Peers), slices.Clone(st.Seen)
				switch mode % 5 {
				case 1: // unsorted
					slices.Reverse(hint)
					slices.Reverse(seen)
				case 2: // stale: entries missing, one changed
					if len(hint) > 1 {
						hint, seen = hint[1:], seen[1:]
						hint[0].Site += "-old"
					}
				case 3: // adversarial: duplicates and a same-ID impostor
					hint, seen = append(hint, hint...), append(seen, seen...)
					if len(hint) > 0 {
						hint[0].RSAddr = "impostor:1"
					}
				case 4:
					hint = nil
				}
				if hint != nil {
					v := HeldValues(hint, seen)
					r.Held[st.Shard] = &v
				}
				for j, p := range st.Peers {
					if j%2 == 0 {
						known[p.ID] = p
					} else {
						known[p.ID] = pi(p.ID) // same ID, maybe other fields
					}
				}
			}
			var rs PeerResolver
			var held ShardDelta
			if err := rs.DecodeShardDelta(MustMarshal(&siblings), &held); err != nil {
				t.Fatalf("sibling frame: %v", err)
			}
			for i := range held.Shards {
				r.Held[held.Shards[i].Shard] = &rs.Spans[i]
			}
		}
		r.Lookup = func(id, site, mpdAddr, rsAddr []byte) (PeerInfo, bool) {
			p, ok := known[string(id)]
			return p, ok && p.Site == string(site) && p.MPDAddr == string(mpdAddr) && p.RSAddr == string(rsAddr)
		}

		// Dirty scratch: the decode must overwrite, not append to, what a
		// previous reply left behind.
		var m ShardDelta
		if err := r.DecodeShardDelta(two, &m); err != nil {
			t.Fatal(err)
		}
		err := r.DecodeShardDelta(buf, &m)
		if typ != TShardDelta {
			if err == nil {
				t.Fatalf("a %v frame decoded as a sharddelta", typ)
			}
			return
		}
		if (err == nil) != (plainErr == nil) || (err != nil && err.Error() != plainErr.Error()) {
			t.Fatalf("resolved decode error %v, plain decode's %v", err, plainErr)
		}
		if err != nil {
			return
		}
		for i, st := range m.Shards {
			var h Spans
			if st.Shard >= 0 && st.Shard < len(r.Held) && r.Held[st.Shard] != nil {
				h = *r.Held[st.Shard]
			}
			checkDelta(t, i, &r.Spans[i], h.peers, h.seen, st)
		}
		// What this decode recorded, held for a second decode of the frame
		// and forwarded with the states it was recorded into.
		again := &PeerResolver{Held: make([]*Spans, 4)}
		fwd := make([]*Spans, len(m.Shards))
		for i, st := range m.Shards {
			fwd[i] = &r.Spans[i]
			if st.Shard >= 0 && st.Shard < len(again.Held) {
				again.Held[st.Shard] = &r.Spans[i]
			}
		}
		var m2 ShardDelta
		if err := again.DecodeShardDelta(buf, &m2); err != nil {
			t.Fatalf("decode against its own spans: %v", err)
		}
		want := MustMarshal(plain)
		forwarded := AppendShardDelta(nil, m.Shards, fwd)
		if bytes.Equal(data, want) && !bytes.Equal(forwarded, want) {
			t.Fatalf("forwarding our own frame changed its bytes:\nforwarded %x\nframe     %x", forwarded, want)
		}
		// Spans recorded for other arrays — the ones this decode was held
		// against — are not forwarded: the states are encoded.
		stale := make([]*Spans, len(m.Shards))
		for i, st := range m.Shards {
			if st.Shard >= 0 && st.Shard < len(r.Held) {
				stale[i] = r.Held[st.Shard]
			}
		}
		if enc := AppendShardDelta(nil, m.Shards, stale); !bytes.Equal(enc, want) {
			t.Fatalf("forwarded spans of other arrays:\nforwarded %x\nencoded   %x", enc, want)
		}
		var m3 ShardDelta
		if err := (*PeerResolver)(nil).DecodeShardDelta(forwarded, &m3); err != nil {
			t.Fatalf("forwarded frame does not decode: %v", err)
		}
		// The same states, each carrying the wire image of its entries as
		// an owner's table does, encode to the same bytes and decode back.
		imaged := slices.Clone(m.Shards)
		for i := range imaged {
			imaged[i].Image = new(PeerImage)
			imaged[i].Image.Reset(imaged[i].Peers)
		}
		if enc := AppendShardDelta(nil, imaged, nil); !bytes.Equal(enc, want) {
			t.Fatalf("states encoded from their images:\nimage  %x\nfields %x", enc, want)
		}
		var m4 ShardDelta
		if err := r.DecodeShardDelta(AppendShardDelta(nil, imaged, nil), &m4); err != nil {
			t.Fatalf("image-encoded frame does not decode: %v", err)
		}
		for i := range buf {
			buf[i] ^= 0xff // a value still viewing the frame would change
		}
		for _, got := range []*ShardDelta{&m, &m2, &m3, &m4} {
			if enc := MustMarshal(got); !bytes.Equal(enc, want) {
				t.Fatalf("resolved decode differs from the plain one:\nresolved %x\nplain    %x", enc, want)
			}
			if len(got.Shards) != len(plain.Shards) {
				t.Fatalf("%d shards, want %d", len(got.Shards), len(plain.Shards))
			}
			for i := range got.Shards {
				if len(got.Shards[i].Seen) != len(plain.Shards[i].Seen) {
					t.Fatalf("shard %d: %d stamps, want %d", i, len(got.Shards[i].Seen), len(plain.Shards[i].Seen))
				}
			}
		}
	})
}

// checkDelta asserts that sp's change lists are relative to the held
// snapshot prev/prevSeen, and to no copy of it, and exact: ascending,
// in range, and prev minus gone equals st minus fresh, value for value
// and stamp for stamp.
func checkDelta(t *testing.T, i int, sp *Spans, prev []PeerInfo, prevSeen []int64, st ShardState) {
	t.Helper()
	gone, fresh, ok := sp.Delta(prev, prevSeen)
	if !ok {
		t.Fatalf("state %d: the delta is not relative to the snapshot it was decoded against", i)
	}
	if _, _, ok := sp.Delta(slices.Clone(prev), prevSeen); ok && len(prev) > 0 {
		t.Fatalf("state %d: the delta claims to be relative to a copy of its snapshot", i)
	}
	keep := func(peers []PeerInfo, seen []int64, drop []int32) (out []string) {
		for n, j := range drop {
			if j < 0 || int(j) >= len(peers) || n > 0 && j <= drop[n-1] {
				t.Fatalf("state %d: change list %v unsorted or out of range for %d entries", i, drop, len(peers))
			}
		}
		for j := range peers {
			if len(drop) > 0 && drop[0] == int32(j) {
				drop = drop[1:]
				continue
			}
			out = append(out, fmt.Sprint(peers[j], seen[j]))
		}
		return out
	}
	if a, b := keep(prev, prevSeen, gone), keep(st.Peers, st.Seen, fresh); !slices.Equal(a, b) {
		t.Fatalf("state %d: held minus gone %v != decoded minus fresh %v", i, a, b)
	}
}

// heldSibling returns the snapshot whose recorded spans shard st's held
// spans are, by mode: 0 none; 1 st itself; 2, 3 st with an entry
// inserted or removed mid-list; 4 st with its first entry's RSAddr
// changed (same ID); 5 one stamp changed; 6 st cut short.
func heldSibling(st ShardState, mode byte) (ShardState, bool) {
	peers, seen := slices.Clone(st.Peers), slices.Clone(st.Seen)
	mid := len(peers) / 2
	switch mode {
	case 0:
		return ShardState{}, false
	case 2:
		peers = slices.Insert(peers, mid, PeerInfo{ID: "inserted", Site: "s", MPDAddr: "i:1", RSAddr: "i:2"})
		seen = slices.Insert(seen, mid, 77)
	case 3, 4, 5:
		if len(peers) == 0 {
			break
		}
		switch mode {
		case 3:
			peers, seen = slices.Delete(peers, mid, mid+1), slices.Delete(seen, mid, mid+1)
		case 4:
			peers[0].RSAddr = "impostor:1"
		case 5:
			seen[mid]++
		}
	case 6:
		peers, seen = peers[:mid], seen[:mid]
	}
	return ShardState{Shard: st.Shard, Version: st.Version, Stamp: st.Stamp, Peers: peers, Seen: seen}, true
}

// FuzzDecodeInto: the fixed-shape reuse decoder (heartbeats, handshake
// echoes, shard redirects) across every supported target type. The
// reused strings must not alias the frame either.
func FuzzDecodeInto(f *testing.F) {
	for _, frame := range corpusFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		targets := []any{
			&Ping{}, &Pong{}, &Alive{}, &AliveAck{}, &FetchPeers{},
			&ReserveOK{}, &ReserveNOK{}, &Cancel{}, &CancelAck{},
			&Ready{}, &Start{}, &StartAck{}, &JobPing{}, &JobPong{},
			&ShardRedirect{}, &KillJob{}, &KillAck{},
		}
		for _, target := range targets {
			if err := DecodeInto(buf, target); err != nil {
				continue
			}
			first, merr := Marshal(target)
			if merr != nil {
				t.Fatalf("decoded %T does not re-marshal: %v", target, merr)
			}
			firstCopy := append([]byte(nil), first...)
			saved := append([]byte(nil), buf...)
			for i := range buf {
				buf[i] ^= 0xff
			}
			second, _ := Marshal(target)
			if !bytes.Equal(firstCopy, second) {
				t.Fatalf("%T decode aliases the input buffer", target)
			}
			copy(buf, saved) // restore for the remaining targets
		}
	})
}
