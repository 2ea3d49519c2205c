package proto

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// FuzzPeerImage drives a PeerImage and a plain table — the model — with
// one edit script of Insert, Set (same-length RSAddr changes among them),
// Remove, Reset and CopyFrom, with fields long enough to cross the
// one-byte length prefix. After every edit the image must be the
// table's encoding: AppendPeerListImage equals the Marshal of the
// window, rotated out of the table by the test, for every start and
// count, wrapped windows and count 0 included, and a
// shard state carrying the image encodes byte for byte as the one
// encoded field by field, and decodes back to the table; one whose
// Peers the image does not match in length is encoded field by field.
// The whole-table frame (Frame) is the window (0, Len), one slice
// shared by every ask until the next edit, and a frame handed out
// before the edit keeps its bytes.
// It catches an insert that leaves the tail's ends in place, an
// off-by-one at the wrap, a Set that keeps the old RSAddr, and an edit
// that keeps or overwrites the frame.
func FuzzPeerImage(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		ops := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		field := func(prefix string) string {
			return prefix + strings.Repeat("x", next()%80)
		}
		peer := func() PeerInfo {
			id := field(string(rune('a' + next()%8)))
			return PeerInfo{ID: id, Site: field("s"), MPDAddr: field(id + ":"), RSAddr: field(id + ":")}
		}
		var table []PeerInfo
		img, spare := new(PeerImage), new(PeerImage)
		var sent, sentCopy []byte // a frame handed out before the edit
		for step := 0; len(ops) > 0; step++ {
			edit := true
			switch op := next() % 8; {
			case op < 3:
				i := next() % (len(table) + 1)
				p := peer()
				table = slices.Insert(table, i, p)
				img.Insert(i, p)
			case op < 5 && len(table) > 0:
				i := next() % len(table)
				p := peer()
				if op == 4 { // the same entry, another RSAddr of the same length
					p = table[i]
					p.RSAddr = strings.Repeat(string(rune('0'+next()%10)), len(p.RSAddr))
				}
				table[i] = p
				img.Set(i, p)
			case op == 5 && len(table) > 0:
				i := next() % len(table)
				table = slices.Delete(table, i, i+1)
				img.Remove(i)
			case op == 6:
				table = table[:0]
				for n := next() % 6; n > 0; n-- {
					table = append(table, peer())
				}
				img.Reset(table)
			case op == 7:
				spare.CopyFrom(img)
				img, spare = spare, img
			default:
				edit = false
			}
			checkImage(t, step, table, img)
			if !bytes.Equal(sent, sentCopy) {
				t.Fatalf("step %d: an edit wrote into a frame already handed out", step)
			}
			if edit {
				sent = checkFrame(t, step, img)
				sentCopy = slices.Clone(sent)
			}
		}
	})
}

// checkFrame asserts Frame's contract right after an edit of img and
// returns the frame.
func checkFrame(t *testing.T, step int, img *PeerImage) []byte {
	t.Helper()
	want := AppendPeerListImage(nil, img, 0, img.Len())
	f := img.Frame()
	if !bytes.Equal(f, want) {
		t.Fatalf("step %d: whole-table frame\n%x, want\n%x", step, f, want)
	}
	if again := img.Frame(); unsafe.SliceData(again) != unsafe.SliceData(f) {
		t.Fatalf("step %d: an unchanged image built its frame twice", step)
	}
	return f
}

// checkImage asserts that img is the wire image of table.
func checkImage(t *testing.T, step int, table []PeerInfo, img *PeerImage) {
	t.Helper()
	if img.Len() != len(table) {
		t.Fatalf("step %d: image of %d entries, table of %d", step, img.Len(), len(table))
	}
	n := len(table)
	for start := 0; start < max(n, 1); start++ {
		rotated := append(slices.Clone(table[start:]), table[:start]...)
		for count := 0; count <= n; count++ {
			got := AppendPeerListImage([]byte{0xee}, img, start, count)
			want, _ := AppendMarshal([]byte{0xee}, &PeerList{Peers: rotated[:count]})
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: window (%d, %d) of %d:\nimage %x\nframe %x", step, start, count, n, got, want)
			}
		}
	}
	seen := make([]int64, n)
	for i := range seen {
		seen[i] = int64(i*i*1000 - 7)
	}
	st := ShardState{Shard: 1, Version: 4, Stamp: 5, Peers: table, Seen: seen}
	want := AppendShardDelta(nil, []ShardState{st}, nil)
	st.Image = img
	got := AppendShardDelta(nil, []ShardState{st}, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: state encoded from its image:\nimage  %x\nfields %x", step, got, want)
	}
	var m ShardDelta
	if err := (*PeerResolver)(nil).DecodeShardDelta(got, &m); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if st.Image = nil; n > 0 && !reflect.DeepEqual(m.Shards, []ShardState{st}) {
		t.Fatalf("step %d: decoded %+v, want %+v", step, m.Shards, st)
	}
	if n > 0 { // an image of another length than Peers is not used
		st.Peers, st.Seen = table[1:], seen[1:]
		want = AppendShardDelta(nil, []ShardState{st}, nil)
		st.Image = img
		if got := AppendShardDelta(nil, []ShardState{st}, nil); !bytes.Equal(got, want) {
			t.Fatalf("step %d: a state used an image of %d entries for %d peers", step, img.Len(), n-1)
		}
	}
}
