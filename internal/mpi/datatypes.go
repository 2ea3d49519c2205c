package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Op is a predefined reduction operator for the typed helpers.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// EncodeF64s encodes a float64 slice little-endian.
func EncodeF64s(vs []float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// DecodeF64s decodes a little-endian float64 slice.
func DecodeF64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: f64 payload of %d bytes", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// EncodeI64s encodes an int64 slice little-endian.
func EncodeI64s(vs []int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// DecodeI64s decodes a little-endian int64 slice.
func DecodeI64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: i64 payload of %d bytes", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// EncodeI32s encodes an int32 slice little-endian (the NAS IS key type).
func EncodeI32s(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// DecodeI32s decodes a little-endian int32 slice.
func DecodeI32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mpi: i32 payload of %d bytes", len(b))
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func applyF64(op Op, a, b float64) float64 {
	switch op {
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	case OpProd:
		return a * b
	default:
		return a + b
	}
}

func applyI64(op Op, a, b int64) int64 {
	switch op {
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		return a + b
	}
}

// F64Combiner returns a Combiner reducing float64 vectors element-wise.
func F64Combiner(op Op) Combiner {
	return func(a, b Data) Data {
		av, err := DecodeF64s(a.Bytes)
		if err != nil {
			panic(err)
		}
		bv, err := DecodeF64s(b.Bytes)
		if err != nil {
			panic(err)
		}
		if len(av) != len(bv) {
			panic(fmt.Sprintf("mpi: combine length mismatch %d vs %d", len(av), len(bv)))
		}
		out := make([]float64, len(av))
		for i := range av {
			out[i] = applyF64(op, av[i], bv[i])
		}
		return Data{Bytes: EncodeF64s(out)}
	}
}

// I64Combiner returns a Combiner reducing int64 vectors element-wise.
func I64Combiner(op Op) Combiner {
	return func(a, b Data) Data {
		av, err := DecodeI64s(a.Bytes)
		if err != nil {
			panic(err)
		}
		bv, err := DecodeI64s(b.Bytes)
		if err != nil {
			panic(err)
		}
		if len(av) != len(bv) {
			panic(fmt.Sprintf("mpi: combine length mismatch %d vs %d", len(av), len(bv)))
		}
		out := make([]int64, len(av))
		for i := range av {
			out[i] = applyI64(op, av[i], bv[i])
		}
		return Data{Bytes: EncodeI64s(out)}
	}
}

// VirtualCombiner models a reduction of fixed-size vectors: the result
// has the same modelled size as the larger operand. Used by the
// virtual-time NAS pattern runs.
func VirtualCombiner(a, b Data) Data {
	v := a.Virtual
	if b.Virtual > v {
		v = b.Virtual
	}
	return Data{Virtual: v}
}

// AllreduceF64 reduces float64 vectors across all ranks.
func (c *Comm) AllreduceF64(vals []float64, op Op) ([]float64, error) {
	res, err := c.Allreduce(Data{Bytes: EncodeF64s(vals)}, F64Combiner(op))
	if err != nil {
		return nil, err
	}
	return DecodeF64s(res.Bytes)
}

// AllreduceI64 reduces int64 vectors across all ranks.
func (c *Comm) AllreduceI64(vals []int64, op Op) ([]int64, error) {
	res, err := c.Allreduce(Data{Bytes: EncodeI64s(vals)}, I64Combiner(op))
	if err != nil {
		return nil, err
	}
	return DecodeI64s(res.Bytes)
}

// ReduceF64 reduces float64 vectors at root; non-roots return nil.
func (c *Comm) ReduceF64(root int, vals []float64, op Op) ([]float64, error) {
	res, err := c.Reduce(root, Data{Bytes: EncodeF64s(vals)}, F64Combiner(op))
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return DecodeF64s(res.Bytes)
}
