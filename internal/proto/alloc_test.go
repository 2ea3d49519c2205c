package proto

import (
	"fmt"
	"reflect"
	"testing"
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
// against the snapshots they replace (hints) or the world's interner
// (lookup) — builds no string and grows no buffer: 0 allocs/op.
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
	hints := make([][]PeerInfo, 3)
	for k, st := range delta.Shards {
		hints[k] = st.Peers
		for _, p := range st.Peers {
			known[p.ID] = p
		}
	}
	lookup := func(id, site, mpdAddr, rsAddr []byte) (PeerInfo, bool) {
		p, ok := known[string(id)]
		return p, ok && p.Site == string(site) && p.MPDAddr == string(mpdAddr) && p.RSAddr == string(rsAddr)
	}
	for name, r := range map[string]*PeerResolver{
		"hints":  {Hints: hints},
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
