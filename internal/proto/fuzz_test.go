package proto

import (
	"bytes"
	"slices"
	"testing"
)

// The decoders sit on the untrusted edge of the daemons: every frame a
// supernode or MPD receives goes through Unmarshal, UnmarshalPeerList
// (whole or limited), DecodeShardDelta or DecodeInto before anything
// else looks at it. The fuzz targets pin the two safety properties the
// pooled zero-alloc paths depend on:
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
	out := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, MustMarshal(m))
	}
	return out
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

// FuzzUnmarshalPeerList: the host-list fast path (pooled scratch
// decode) must reject garbage without panicking and without aliasing.
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
		if err != nil {
			return
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

// FuzzUnmarshalPeerListLimited: materializing only a prefix changes
// nothing observable — for every limit the result is the full decode's
// prefix and the error is the full decode's error, so a receiver that
// keeps two entries still rejects exactly the replies it rejected when
// it decoded them all.
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
			got, err := UnmarshalPeerListLimited(data, make([]PeerInfo, 0, 2), limit)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("limit %d: error %v, full decode's %v", limit, err, wantErr)
			}
			keep := n
			if limit >= 0 && limit < n {
				keep = limit
			}
			if !slices.Equal(got, want[:keep]) {
				t.Fatalf("limit %d: decoded %+v, want the prefix %+v", limit, got, want[:keep])
			}
		}
	})
}

// FuzzShardDeltaResolved: resolving entries against hints and a lookup
// is invisible. For any frame, whatever the hint lists look like — the
// previous snapshot, a reordered, stale, duplicated or lying one, or
// none — and with a pre-populated lookup, the resolved decode into
// dirty scratch returns the plain decode's value or the plain decode's
// error, rejects exactly the frames Unmarshal rejects, and aliases
// neither the frame nor (observably) the hints.
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
	f.Fuzz(func(t *testing.T, data, modes []byte) {
		buf := slices.Clone(data)
		typ, plainMsg, plainErr := Unmarshal(buf)
		plain, _ := plainMsg.(*ShardDelta)

		// Hints and lookup table derived from what the frame really holds,
		// then bent per shard by the fuzzed mode bytes.
		r := &PeerResolver{Hints: make([][]PeerInfo, 4)}
		known := map[string]PeerInfo{"ghost": pi("ghost")}
		if plain != nil {
			for i, st := range plain.Shards {
				if st.Shard < 0 || st.Shard >= len(r.Hints) {
					continue
				}
				mode := byte(0)
				if len(modes) > 0 {
					mode = modes[i%len(modes)] % 5
				}
				hint := slices.Clone(st.Peers)
				switch mode {
				case 1: // unsorted
					slices.Reverse(hint)
				case 2: // stale: entries missing, one changed
					if len(hint) > 1 {
						hint = hint[1:]
						hint[0].Site += "-old"
					}
				case 3: // adversarial: duplicates and a same-ID impostor
					hint = append(hint, hint...)
					if len(hint) > 0 {
						hint[0].RSAddr = "impostor:1"
					}
				case 4:
					hint = nil
				}
				r.Hints[st.Shard] = hint
				for j, p := range st.Peers {
					if j%2 == 0 {
						known[p.ID] = p
					} else {
						known[p.ID] = pi(p.ID) // same ID, maybe other fields
					}
				}
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
		want := MustMarshal(plain)
		for i := range buf {
			buf[i] ^= 0xff // a value still viewing the frame would change
		}
		if got := MustMarshal(&m); !bytes.Equal(got, want) {
			t.Fatalf("resolved decode differs from the plain one:\nresolved %x\nplain    %x", got, want)
		}
		if len(m.Shards) != len(plain.Shards) {
			t.Fatalf("%d shards, want %d", len(m.Shards), len(plain.Shards))
		}
		for i := range m.Shards {
			if len(m.Shards[i].Seen) != len(plain.Shards[i].Seen) {
				t.Fatalf("shard %d: %d stamps, want %d", i, len(m.Shards[i].Seen), len(plain.Shards[i].Seen))
			}
		}
	})
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
