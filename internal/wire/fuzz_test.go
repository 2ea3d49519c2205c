package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzVarint: the one-byte fast paths are invisible. The encoder's
// bytes equal binary.AppendVarint's for every int64, and the decoder
// reads any 0–11-byte input — overlong and truncated ones included —
// to binary.Varint's value and length, failing exactly where it fails.
func FuzzVarint(f *testing.F) {
	for v := int64(-65); v <= 64; v++ {
		f.Add(v, binary.AppendVarint(nil, v))
	}
	for k := 1; k < 63; k++ {
		for _, v := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			f.Add(v, binary.AppendVarint(nil, v))
			f.Add(-v, binary.AppendVarint(nil, -v))
		}
	}
	f.Add(int64(math.MinInt64), binary.AppendVarint(nil, math.MinInt64))
	f.Add(int64(math.MaxInt64), binary.AppendVarint(nil, math.MaxInt64))
	f.Add(int64(0), []byte{0x80, 0x00})                          // overlong zero
	f.Add(int64(0), []byte{0x80})                                // truncated
	f.Add(int64(0), []byte{})                                    // empty
	f.Add(int64(0), bytes.Repeat([]byte{0xff}, 11))              // overflow
	f.Add(int64(0), append(bytes.Repeat([]byte{0x80}, 9), 0x02)) // 10th byte too big
	f.Fuzz(func(t *testing.T, v int64, data []byte) {
		if got, want := NewEncoder(0).Varint(v).Bytes(), binary.AppendVarint(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("Varint(%d) encodes %x, encoding/binary %x", v, got, want)
		}
		if len(data) > 11 {
			data = data[:11]
		}
		want, n := binary.Varint(data)
		d := NewDecoder(data)
		got := d.Varint()
		if n <= 0 {
			if got != 0 || d.Err() != ErrCorrupt || d.Remaining() != len(data) {
				t.Fatalf("%x: decoded %d (err %v, %d left), encoding/binary fails (n %d)", data, got, d.Err(), d.Remaining(), n)
			}
			return
		}
		if got != want || d.Err() != nil || d.Remaining() != len(data)-n {
			t.Fatalf("%x: decoded %d from %d bytes (err %v), encoding/binary %d from %d",
				data, got, len(data)-d.Remaining(), d.Err(), want, n)
		}
	})
}

// TestSkipStringsMatchesStringBytes: skipping n strings consumes what n
// StringBytes reads consume and fails where they fail.
func TestSkipStringsMatchesStringBytes(t *testing.T) {
	ok := NewEncoder(32).String("alpha").String("").String(string(make([]byte, 200))).U8(7).Bytes()
	for _, frame := range [][]byte{ok, ok[:len(ok)-2], {0x10, 'x'}, {0x09}, {0x80}, {}} {
		for n := 0; n <= 4; n++ {
			skip, read := NewDecoder(frame), NewDecoder(frame)
			skip.SkipStrings(n)
			for i := 0; i < n; i++ {
				read.StringBytes()
			}
			if skip.Err() != read.Err() || (read.Err() == nil && skip.Offset() != read.Offset()) {
				t.Fatalf("frame %x, %d strings: skip at %d (err %v), reads at %d (err %v)",
					frame, n, skip.Offset(), skip.Err(), read.Offset(), read.Err())
			}
		}
	}
}
