// Package wire implements the compact binary encoding used by every
// P2P-MPI control-plane and data-plane message. It is a hand-rolled,
// allocation-light codec (length-prefixed strings, varint integers) so
// that the same frames flow over real TCP sockets and the simulated
// network without reflection overhead.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrShort is returned when a decoder runs past the end of its buffer.
var ErrShort = errors.New("wire: buffer too short")

// ErrCorrupt is returned when a frame fails structural validation.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Encoder appends primitive values to a byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Reset points the encoder at the front of buf, reusing its capacity.
// It is how hot paths encode into caller-owned scratch without
// allocating: var e Encoder; e.Reset(scratch); ...; scratch = e.Bytes().
func (e *Encoder) Reset(buf []byte) *Encoder {
	e.buf = buf[:0]
	return e
}

// Bytes returns the encoded frame. The slice aliases the encoder buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) *Encoder {
	e.buf = append(e.buf, v)
	return e
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// U32 appends a fixed-width big-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a fixed-width big-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// Varint appends a signed varint.
func (e *Encoder) Varint(v int64) *Encoder {
	e.buf = binary.AppendVarint(e.buf, v)
	return e
}

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) *Encoder { return e.Varint(int64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) *Encoder { return e.U64(math.Float64bits(v)) }

// Duration appends a time.Duration as a varint of nanoseconds.
func (e *Encoder) Duration(d time.Duration) *Encoder { return e.Varint(int64(d)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) *Encoder {
	e.Varint(int64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.Varint(int64(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// StringSlice appends a length-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) *Encoder {
	e.Varint(int64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
	return e
}

// IntSlice appends a length-prefixed slice of ints.
func (e *Encoder) IntSlice(vs []int) *Encoder {
	e.Varint(int64(len(vs)))
	for _, v := range vs {
		e.Int(v)
	}
	return e
}

// Decoder consumes primitive values from a byte buffer. The first decode
// error sticks: all subsequent reads return zero values, and Err reports
// the failure, so calling code can decode a whole struct and check once.
type Decoder struct {
	buf []byte
	off int
	err error

	// intern, when armed by InternStrings, is one shared string copy of
	// the buffer tail; String reads return substrings of it instead of
	// allocating one copy per field.
	intern     string
	internBase int
}

// NewDecoder returns a decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.buf) {
		d.fail(ErrShort)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a fixed-width big-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a fixed-width big-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrShort)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrCorrupt)
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Duration reads a time.Duration.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Varint()) }

// InternStrings arms string interning: every later String read returns a
// substring of one shared copy of the remaining buffer, so a frame with
// thousands of string fields (a full host-list reply) costs one string
// allocation instead of one per field. Worth arming only on
// string-dense frames — the shared copy stays alive as long as any
// substring does.
func (d *Decoder) InternStrings() {
	if d.intern == "" && d.off < len(d.buf) {
		d.intern = string(d.buf[d.off:])
		d.internBase = d.off
	}
}

// StringBytes reads a length-prefixed string as a view of the frame: no
// copy, no allocation, and valid only until the buffer is released or
// reused. Decoders of string-dense frames use it to match an entry
// against values they already hold before building any string.
func (d *Decoder) StringBytes() []byte {
	n := d.Varint()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > int64(d.Remaining()) {
		d.fail(ErrCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	b := d.StringBytes()
	if d.intern != "" && len(b) > 0 {
		end := d.off - d.internBase
		return d.intern[end-len(b) : end]
	}
	return string(b)
}

// StringInto reads a length-prefixed string into *s, keeping the
// existing allocation when the decoded bytes are identical. The
// comparison is allocation-free, so decoding a stable value (a repeated
// heartbeat's job ID, a reservation key echoed through a handshake)
// into a reused struct costs nothing steady-state.
func (d *Decoder) StringInto(s *string) {
	// compiler-optimized: no allocation to compare
	if b := d.StringBytes(); d.err == nil && *s != string(b) {
		*s = string(b)
	}
}

// Blob reads a length-prefixed byte slice. The result is a copy.
func (d *Decoder) Blob() []byte {
	n := d.Varint()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > int64(d.Remaining()) {
		d.fail(ErrCorrupt)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

// StringSlice reads a length-prefixed slice of strings.
func (d *Decoder) StringSlice() []string {
	n := d.Varint()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > int64(d.Remaining()) { // each string needs >= 1 byte
		d.fail(ErrCorrupt)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, d.String())
	}
	return out
}

// IntSlice reads a length-prefixed slice of ints.
func (d *Decoder) IntSlice() []int {
	n := d.Varint()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > int64(d.Remaining()) {
		d.fail(ErrCorrupt)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, d.Int())
	}
	return out
}
