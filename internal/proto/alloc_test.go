package proto

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// The zero-alloc contract of the hot codec paths is enforced, not
// asserted: these tests fail if a change reintroduces per-frame garbage
// on the encode-into-scratch or decode-into-struct paths that every
// steady-state protocol exchange (latency probes, detector heartbeats,
// reservation handshakes) rides on.

func TestAppendMarshalZeroAlloc(t *testing.T) {
	scratch := make([]byte, 0, 128)
	msgs := []any{
		&Ping{Nonce: 0xdeadbeef},
		&Pong{Nonce: 0xdeadbeef},
		&JobPing{Nonce: 7, JobID: "job-42"},
		&ReserveOK{Key: "0123456789abcdef", P: 4},
		&Start{Key: "0123456789abcdef"},
	}
	for _, msg := range msgs {
		msg := msg
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			scratch, err = AppendMarshal(scratch[:0], msg)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendMarshal(%T): %v allocs/op, want 0", msg, allocs)
		}
	}
}

func TestDecodeIntoZeroAllocSteadyState(t *testing.T) {
	// Steady state: the same logical message arrives repeatedly (a
	// heartbeat). String fields must keep their existing backing when
	// the bytes match, so decoding costs nothing.
	frames := map[string][]byte{
		"ping":      MustMarshal(&Ping{Nonce: 99}),
		"jobping":   MustMarshal(&JobPing{Nonce: 3, JobID: "job-42"}),
		"reserveok": MustMarshal(&ReserveOK{Key: "0123456789abcdef", P: 2}),
		"ready":     MustMarshal(&Ready{Key: "0123456789abcdef", OK: true}),
		"jobpong":   MustMarshal(&JobPong{Nonce: 3, Known: true}),
	}
	targets := map[string]any{
		"ping":      &Ping{},
		"jobping":   &JobPing{},
		"reserveok": &ReserveOK{},
		"ready":     &Ready{},
		"jobpong":   &JobPong{},
	}
	for name, frame := range frames {
		msg := targets[name]
		if err := DecodeInto(frame, msg); err != nil { // warm the strings
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := DecodeInto(frame, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("DecodeInto(%s): %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestRoundTripZeroAllocSteadyState(t *testing.T) {
	// Full round trip — encode into scratch, decode into a reused
	// struct — as the daemons' request/reply loops run it.
	scratch := make([]byte, 0, 128)
	req := &JobPing{Nonce: 12345, JobID: "job-42"}
	var got JobPing
	scratch, _ = AppendMarshal(scratch[:0], req)
	if err := DecodeInto(scratch, &got); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		scratch, err = AppendMarshal(scratch[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(scratch, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("round trip: %v allocs/op, want 0", allocs)
	}
	if got != *req {
		t.Fatalf("round trip mutated the message: %+v vs %+v", got, *req)
	}
}

func TestUnmarshalPeerListReusesScratch(t *testing.T) {
	list := &PeerList{Peers: []PeerInfo{
		{ID: "a.site", Site: "site", MPDAddr: "a.site:9000", RSAddr: "a.site:9001"},
		{ID: "b.site", Site: "site", MPDAddr: "b.site:9000", RSAddr: "b.site:9001"},
	}}
	frame := MustMarshal(list)
	scratch := make([]PeerInfo, 0, 8)
	out, err := UnmarshalPeerList(frame, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != list.Peers[0] || out[1] != list.Peers[1] {
		t.Fatalf("decoded %+v", out)
	}
	if &out[0] != &scratch[:1][0] {
		t.Fatal("decode did not reuse the scratch backing")
	}
	// The intern trick: one string allocation per frame, however many
	// string fields the host list carries (plus the slice growth when
	// the scratch is too small, which reuse amortizes away).
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalPeerList(frame, scratch[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("UnmarshalPeerList: %v allocs/op, want <= 1 (the intern copy)", allocs)
	}
}

// TestShardDeltaDecodeReusesScratch: the gossip loop's steady state —
// same-size deltas decoded into the same scratch, entries resolved
// against the values of the snapshots they replace (held) or the
// world's interner (lookup) — builds no string and grows no buffer,
// change lists included: 0 allocs/op.
func TestShardDeltaDecodeReusesScratch(t *testing.T) {
	delta := &ShardDelta{}
	for k := 0; k < 3; k++ {
		st := ShardState{Shard: k, Version: 7, Stamp: 99}
		for i := 0; i < 40; i++ {
			id := fmt.Sprintf("h%02d-%d.site", i, k)
			st.Peers = append(st.Peers, PeerInfo{ID: id, Site: "site", MPDAddr: id + ":9000", RSAddr: id + ":9001"})
			st.Seen = append(st.Seen, int64(1000+i))
		}
		delta.Shards = append(delta.Shards, st)
	}
	frame := MustMarshal(delta)
	known := map[string]PeerInfo{}
	held := make([]*Spans, 3)
	for k, st := range delta.Shards {
		v := HeldValues(st.Peers, st.Seen)
		held[k] = &v
		for _, p := range st.Peers {
			known[p.ID] = p
		}
	}
	lookup := func(id, site, mpdAddr, rsAddr []byte) (PeerInfo, bool) {
		p, ok := known[string(id)]
		return p, ok && p.Site == string(site) && p.MPDAddr == string(mpdAddr) && p.RSAddr == string(rsAddr)
	}
	for name, r := range map[string]*PeerResolver{
		"held":   {Held: held},
		"lookup": {Lookup: lookup},
	} {
		var m ShardDelta
		if err := r.DecodeShardDelta(frame, &m); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&m, delta) {
			t.Fatalf("%s: decoded %+v", name, m)
		}
		first := &m.Shards[0].Peers[0]
		allocs := testing.AllocsPerRun(100, func() {
			if err := r.DecodeShardDelta(frame, &m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
		if &m.Shards[0].Peers[0] != first {
			t.Errorf("%s: decode did not reuse the scratch backing", name)
		}
	}
}

// TestReplyImagesAllocateNothing: the supernode's two table replies —
// a wrapped host-list window and an owned-state gossip reply — copied
// from the table's wire image into a scratch buffer with capacity
// allocate nothing.
func TestReplyImagesAllocateNothing(t *testing.T) {
	st := ShardState{Shard: 2, Version: 7, Stamp: 99, Image: new(PeerImage)}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("h%02d.site", i)
		st.Peers = append(st.Peers, PeerInfo{ID: id, Site: "site", MPDAddr: id + ":9000", RSAddr: id + ":9001"})
		st.Seen = append(st.Seen, int64(1000+i))
	}
	st.Image.Reset(st.Peers)
	states := []ShardState{st}
	scratch := make([]byte, 0, 8192)
	for name, reply := range map[string]func() []byte{
		"host list":   func() []byte { return AppendPeerListImage(scratch[:0], st.Image, 31, 20) },
		"owned state": func() []byte { return AppendShardDelta(scratch[:0], states, nil) },
	} {
		if allocs := testing.AllocsPerRun(100, func() { reply() }); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestShardDeltaSpansDecodeOnlyChanges: decoding version n+1 of a
// 40-entry snapshot against the spans of version n reads field by field
// only the entries of n+1 whose bytes n did not carry at the cursor — a
// changed field, a changed stamp, an insertion, and the entry after a
// removal — and hands every other entry back from n. Of those four,
// the changed stamp and the entry after the removal find their PeerInfo
// at the cursor, so only the two with new fields ask Lookup and build
// strings. The change lists hold the changed field, the changed stamp,
// the insertion and the removal, and not the entry after it, which
// repeats n's value and stamp.
func TestShardDeltaSpansDecodeOnlyChanges(t *testing.T) {
	pi := func(id string) PeerInfo {
		return PeerInfo{ID: id, Site: "site", MPDAddr: id + ":9000", RSAddr: id + ":9001"}
	}
	v1 := ShardState{Shard: 1, Version: 7, Stamp: 99}
	for i := 0; i < 40; i++ {
		v1.Peers = append(v1.Peers, pi(fmt.Sprintf("h%02d", i)))
		v1.Seen = append(v1.Seen, int64(1000+i))
	}
	v2 := ShardState{Shard: 1, Version: 8, Stamp: 100,
		Peers: slices.Clone(v1.Peers), Seen: slices.Clone(v1.Seen)}
	v2.Peers[5].Site = "moved"
	v2.Seen[12] = 5000
	v2.Peers = slices.Delete(v2.Peers, 30, 31) // h31 follows the gap
	v2.Seen = slices.Delete(v2.Seen, 30, 31)
	v2.Peers = slices.Insert(v2.Peers, 21, pi("h20a"))
	v2.Seen = slices.Insert(v2.Seen, 21, 77)
	const changed, newFields = 4, 2
	frame1 := MustMarshal(&ShardDelta{Shards: []ShardState{v1}})
	frame2 := MustMarshal(&ShardDelta{Shards: []ShardState{v2}})

	var rec PeerResolver
	var m1 ShardDelta
	if err := rec.DecodeShardDelta(frame1, &m1); err != nil {
		t.Fatal(err)
	}
	lookups := 0
	r := &PeerResolver{
		Held: []*Spans{nil, &rec.Spans[0]},
		Lookup: func(id, site, mpdAddr, rsAddr []byte) (PeerInfo, bool) {
			lookups++
			return PeerInfo{}, false
		},
	}
	var m2 ShardDelta
	if err := r.DecodeShardDelta(frame2, &m2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.Shards, []ShardState{v2}) {
		t.Fatalf("decoded %+v, want %+v", m2.Shards, v2)
	}
	if r.slow != changed {
		t.Errorf("%d entries read field by field, want %d", r.slow, changed)
	}
	if lookups != newFields {
		t.Errorf("%d entries asked Lookup, want %d", lookups, newFields)
	}
	gone, fresh, ok := r.Spans[0].Delta(m1.Shards[0].Peers, m1.Shards[0].Seen)
	if !ok || !slices.Equal(gone, []int32{5, 12, 30}) || !slices.Equal(fresh, []int32{5, 12, 21}) {
		t.Errorf("delta %v gone %v fresh %v, want gone [5 12 30] fresh [5 12 21]", ok, gone, fresh)
	}
	held := map[string]PeerInfo{}
	for _, p := range m1.Shards[0].Peers {
		held[p.ID] = p
	}
	reused := 0
	for _, p := range m2.Shards[0].Peers {
		if h, ok := held[p.ID]; ok && h == p && unsafe.StringData(h.ID) == unsafe.StringData(p.ID) &&
			unsafe.StringData(h.RSAddr) == unsafe.StringData(p.RSAddr) {
			reused++
		}
	}
	if want := len(v2.Peers) - newFields; reused != want {
		t.Errorf("%d entries share n's strings, want %d", reused, want)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.DecodeShardDelta(frame2, &m2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4*newFields {
		t.Errorf("%v allocs/op, want %d: four strings per entry with new fields and nothing else", allocs, 4*newFields)
	}
}

func BenchmarkProtoRoundTrip(b *testing.B) {
	b.ReportAllocs()
	scratch := make([]byte, 0, 128)
	req := &JobPing{Nonce: 12345, JobID: "job-42"}
	var got JobPing
	for i := 0; i < b.N; i++ {
		scratch, _ = AppendMarshal(scratch[:0], req)
		if err := DecodeInto(scratch, &got); err != nil {
			b.Fatal(err)
		}
	}
}
