package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The harness owns the CPU profile of the traced pass and charges every
// sample to a layer itself, so attribution needs no span inside the
// program. The profile is the gzipped profile.proto runtime/pprof
// writes; only the four message types needed to walk a stack are
// decoded (Sample, Location, Line, Function, plus the string table).

const layerPrefix = "p2pmpi/internal/"

// pbuf is a cursor over protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflow")
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// field reads one field header and returns its number, its varint value
// (wire type 0) or its payload (wire type 2). Fixed-width fields are
// skipped; profile.proto has none this decoder needs.
func (p *pbuf) field() (num int, v uint64, payload []byte) {
	key := p.varint()
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v = p.varint()
	case 1:
		p.skip(8)
	case 2:
		payload = p.bytes()
	case 5:
		p.skip(4)
	default:
		p.err = fmt.Errorf("unsupported wire type %d", key&7)
	}
	return num, v, payload
}

func (p *pbuf) skip(n int) {
	if n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

// repeatedVarint appends a repeated integer field, packed or not.
func repeatedVarint(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	q := pbuf{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

type profSample struct {
	locs  []uint64
	value []uint64
}

// cpuShares parses CPU profiles and returns the share of samples whose
// innermost p2pmpi/internal/<layer> frame belongs to each layer. Leaf
// charging would put most samples in runtime (channel hand-offs, map
// access, GC assists); walking up to the innermost layer frame charges
// that time to the package that asked for it. Stacks with no layer
// frame (GC workers, idle scheduler, the harness) go to bgShare.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	charged := map[string]float64{}
	var total float64
	for _, gz := range profiles {
		t, err := chargeProfile(gz, charged)
		if err != nil {
			return nil, err
		}
		total += t
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for metric := range charged {
		charged[metric] /= total
	}
	return charged, nil
}

// chargeProfile adds one profile's CPU nanoseconds to charged, keyed by
// metric name, and returns the profile's total.
func chargeProfile(gz []byte, charged map[string]float64) (float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}

	var (
		samples  []profSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, payload := p.field()
		switch num {
		case 2: // Sample
			var s profSample
			q := pbuf{b: payload}
			for len(q.b) > 0 && q.err == nil {
				n, v, pl := q.field()
				switch n {
				case 1:
					s.locs, q.err = repeatedVarint(s.locs, v, pl)
				case 2:
					s.value, q.err = repeatedVarint(s.value, v, pl)
				}
			}
			if q.err != nil {
				return 0, fmt.Errorf("cpu profile sample: %w", q.err)
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{b: payload}
			for len(q.b) > 0 && q.err == nil {
				n, v, pl := q.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{b: pl}
					for len(l.b) > 0 && l.err == nil {
						if ln, lv, _ := l.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						q.err = l.err
					}
				}
			}
			if q.err != nil {
				return 0, fmt.Errorf("cpu profile location: %w", q.err)
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{b: payload}
			for len(q.b) > 0 && q.err == nil {
				n, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if q.err != nil {
				return 0, fmt.Errorf("cpu profile function: %w", q.err)
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	if p.err != nil {
		return 0, fmt.Errorf("cpu profile: %w", p.err)
	}

	layerOf := func(fn uint64) string {
		idx := funcName[fn]
		if idx >= uint64(len(strs)) {
			return ""
		}
		rest, ok := strings.CutPrefix(strs[idx], layerPrefix)
		if !ok {
			return ""
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	var total float64
	for _, s := range samples {
		if len(s.value) == 0 {
			continue
		}
		w := float64(s.value[len(s.value)-1]) // cpu nanoseconds
		layer := ""
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if layer = layerOf(fn); layer != "" {
					break walk
				}
			}
		}
		metric := bgShare
		if layer != "" {
			metric = layer + ".cpu_share"
		}
		charged[metric] += w
		total += w
	}
	return total, nil
}
