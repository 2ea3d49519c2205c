package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7).Bool(true).Bool(false).U32(0xDEADBEEF).U64(1 << 60).
		Varint(-12345).Int(42).F64(math.Pi).Duration(17 * time.Millisecond).
		String("grid'5000").Blob([]byte{1, 2, 3}).
		StringSlice([]string{"nancy", "lyon"}).IntSlice([]int{-1, 0, 99})

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64 = %x", v)
	}
	if v := d.Varint(); v != -12345 {
		t.Fatalf("Varint = %d", v)
	}
	if v := d.Int(); v != 42 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.Duration(); v != 17*time.Millisecond {
		t.Fatalf("Duration = %v", v)
	}
	if v := d.String(); v != "grid'5000" {
		t.Fatalf("String = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", v)
	}
	ss := d.StringSlice()
	if len(ss) != 2 || ss[0] != "nancy" || ss[1] != "lyon" {
		t.Fatalf("StringSlice = %v", ss)
	}
	is := d.IntSlice()
	if len(is) != 3 || is[0] != -1 || is[2] != 99 {
		t.Fatalf("IntSlice = %v", is)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U32()
	if d.Err() != ErrShort {
		t.Fatalf("err = %v, want ErrShort", d.Err())
	}
	// Sticky error: further reads are zero values, no panic.
	if d.U64() != 0 || d.String() != "" || d.Blob() != nil {
		t.Fatal("reads after error should return zero values")
	}
}

func TestDecoderCorruptString(t *testing.T) {
	e := NewEncoder(8)
	e.Varint(1000) // claims a 1000-byte string follows
	d := NewDecoder(e.Bytes())
	if d.String() != "" || d.Err() == nil {
		t.Fatal("corrupt string not detected")
	}
}

func TestDecoderNegativeLength(t *testing.T) {
	e := NewEncoder(8)
	e.Varint(-5)
	d := NewDecoder(e.Bytes())
	if d.Blob() != nil || d.Err() == nil {
		t.Fatal("negative length not detected")
	}
}

// TestStringBytesIsAView: the accessor reads exactly what String reads —
// same bytes, same offsets, same sticky errors, with or without
// InternStrings armed around it — but as a view of the frame: no copy,
// and clipped so an append cannot write into the next field.
func TestStringBytesIsAView(t *testing.T) {
	e := NewEncoder(32)
	e.String("alpha").String("").String("beta").U8(7)
	frame := e.Bytes()
	d := NewDecoder(frame)
	a := d.StringBytes()
	d.InternStrings()
	empty, b := d.StringBytes(), d.String()
	if string(a) != "alpha" || len(empty) != 0 || b != "beta" || d.U8() != 7 || d.Finish() != nil {
		t.Fatalf("decoded %q %q %q, err %v", a, empty, b, d.Err())
	}
	if &a[0] != &frame[1] || cap(a) != len(a) {
		t.Fatalf("StringBytes returned a copy or an unclipped view (cap %d)", cap(a))
	}
	if got := append(a, 'X'); &got[0] == &a[0] || frame[6] == 'X' {
		t.Fatal("appending to a view wrote into the frame")
	}
	for _, bad := range [][]byte{{0x10, 'x'}, {0x09}, {0x80}} { // too long, negative, cut varint
		ds, db := NewDecoder(bad), NewDecoder(bad)
		_ = ds.String()
		if v := db.StringBytes(); v != nil || db.Err() == nil || db.Err() != ds.Err() {
			t.Fatalf("frame %x: StringBytes %q err %v, String err %v", bad, v, db.Err(), ds.Err())
		}
	}
}

func TestFinishTrailingBytes(t *testing.T) {
	e := NewEncoder(8)
	e.U8(1).U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should reject trailing bytes")
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string, b []byte, i int64, u uint64) bool {
		e := NewEncoder(16)
		e.String(s).Blob(b).Varint(i).U64(u)
		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.Blob()
		gi := d.Varint()
		gu := d.U64()
		if d.Finish() != nil {
			return false
		}
		return gs == s && bytes.Equal(gb, b) == (len(b) == len(gb)) && gi == i && gu == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSlicesRoundTrip(t *testing.T) {
	f := func(ss []string, is []int) bool {
		e := NewEncoder(16)
		e.StringSlice(ss).IntSlice(is)
		d := NewDecoder(e.Bytes())
		gss := d.StringSlice()
		gis := d.IntSlice()
		if d.Finish() != nil {
			return false
		}
		if len(gss) != len(ss) || len(gis) != len(is) {
			return false
		}
		for i := range ss {
			if gss[i] != ss[i] {
				return false
			}
		}
		for i := range is {
			if gis[i] != is[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBytesNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDecoder(b)
		_ = d.U8()
		_ = d.Varint()
		_ = d.String()
		_ = d.StringSlice()
		_ = d.IntSlice()
		_ = d.Blob()
		_ = d.F64()
		_ = d.Finish()
		return true // absence of panic is the property
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
