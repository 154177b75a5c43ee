// Package blob implements the Swift/T blob type and the blobutils helper
// library (paper §III-B): binary large objects that carry bulk scientific
// data — C-style arrays, strings, and multidimensional Fortran arrays —
// between Swift, Tcl, and native kernels without copying through textual
// representations.
//
// Where real blobutils converts between void* and typed pointers for SWIG,
// this package converts between raw byte slices and typed Go slices with
// explicit little-endian layout, which is the same contract (a pointer +
// length pair reinterpreted at a given element type).
package blob

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Elem identifies the element interpretation of a blob's bytes — the
// typed view blobutils would obtain by casting the void* to a typed
// pointer. ElemBytes means the payload is uninterpreted.
type Elem uint8

// Element kinds.
const (
	ElemBytes Elem = iota
	ElemF64
	ElemF32
	ElemI32
	ElemI64
)

// Size returns the byte width of one element.
func (e Elem) Size() int {
	switch e {
	case ElemF64, ElemI64:
		return 8
	case ElemF32, ElemI32:
		return 4
	}
	return 1
}

func (e Elem) String() string {
	switch e {
	case ElemF64:
		return "float64"
	case ElemF32:
		return "float32"
	case ElemI32:
		return "int32"
	case ElemI64:
		return "int64"
	}
	return "bytes"
}

// Blob is a binary large object: raw bytes plus an optional logical shape
// for multidimensional array data and an element interpretation. A nil
// Dims means a flat buffer; ElemBytes means uninterpreted payload.
type Blob struct {
	Data []byte
	Dims []int // logical extents; Fortran (column-major) order when set
	Elem Elem  // element view of Data (ElemBytes if unknown)
}

// New wraps raw bytes as a flat blob.
func New(data []byte) Blob { return Blob{Data: data} }

// Count returns the number of elements under the blob's element view.
func (b Blob) Count() int { return len(b.Data) / b.Elem.Size() }

// Len returns the byte length.
func (b Blob) Len() int { return len(b.Data) }

// String renders a short diagnostic description, not the contents.
func (b Blob) String() string {
	if b.Dims == nil {
		return fmt.Sprintf("blob[%d bytes]", len(b.Data))
	}
	return fmt.Sprintf("blob[%d bytes, dims %v]", len(b.Data), b.Dims)
}

// FromFloat64s packs a float64 slice into a blob (little-endian IEEE 754),
// the equivalent of blobutils' double* view.
func FromFloat64s(v []float64) Blob {
	data := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(f))
	}
	return Blob{Data: data, Elem: ElemF64}
}

// FromFloat32s packs a float32 slice into a blob (the C float* view).
func FromFloat32s(v []float32) Blob {
	data := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(f))
	}
	return Blob{Data: data, Elem: ElemF32}
}

// ToFloat32s reinterprets a blob as a float32 slice.
func ToFloat32s(b Blob) ([]float32, error) {
	if len(b.Data)%4 != 0 {
		return nil, fmt.Errorf("blob: %d bytes is not a whole number of float32s", len(b.Data))
	}
	out := make([]float32, len(b.Data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out, nil
}

// ToFloat64s reinterprets a blob as a float64 slice.
func ToFloat64s(b Blob) ([]float64, error) {
	if len(b.Data)%8 != 0 {
		return nil, fmt.Errorf("blob: %d bytes is not a whole number of float64s", len(b.Data))
	}
	out := make([]float64, len(b.Data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.Data[8*i:]))
	}
	return out, nil
}

// FromInt32s packs an int32 slice into a blob (the C int view).
func FromInt32s(v []int32) Blob {
	data := make([]byte, 4*len(v))
	for i, n := range v {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(n))
	}
	return Blob{Data: data, Elem: ElemI32}
}

// ToInt32s reinterprets a blob as an int32 slice.
func ToInt32s(b Blob) ([]int32, error) {
	if len(b.Data)%4 != 0 {
		return nil, fmt.Errorf("blob: %d bytes is not a whole number of int32s", len(b.Data))
	}
	out := make([]int32, len(b.Data)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out, nil
}

// FromInt64s packs an int64 slice into a blob (the C long long view).
func FromInt64s(v []int64) Blob {
	data := make([]byte, 8*len(v))
	for i, n := range v {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(n))
	}
	return Blob{Data: data, Elem: ElemI64}
}

// ToInt64s reinterprets a blob as an int64 slice.
func ToInt64s(b Blob) ([]int64, error) {
	if len(b.Data)%8 != 0 {
		return nil, fmt.Errorf("blob: %d bytes is not a whole number of int64s", len(b.Data))
	}
	out := make([]int64, len(b.Data)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b.Data[8*i:]))
	}
	return out, nil
}

// Floats decodes the blob's elements as float64s under its element view
// (float kinds widen exactly; integer kinds and raw bytes convert).
func (b Blob) Floats() ([]float64, error) {
	switch b.Elem {
	case ElemF64:
		return ToFloat64s(Blob{Data: b.Data})
	case ElemF32:
		v, err := ToFloat32s(Blob{Data: b.Data})
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(v))
		for i, f := range v {
			out[i] = float64(f)
		}
		return out, nil
	case ElemI32:
		v, err := ToInt32s(Blob{Data: b.Data})
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(v))
		for i, n := range v {
			out[i] = float64(n)
		}
		return out, nil
	case ElemI64:
		v, err := ToInt64s(Blob{Data: b.Data})
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(v))
		for i, n := range v {
			out[i] = float64(n)
		}
		return out, nil
	}
	out := make([]float64, len(b.Data))
	for i, c := range b.Data {
		out[i] = float64(c)
	}
	return out, nil
}

// PackLike packs xs into a blob, preferring the prototype's element view
// and dims when the length matches and every value is exactly
// representable under it; otherwise it falls back to a flat float64
// blob. This keeps identity round-trips through an interpreter bit-exact
// for narrow element kinds (float32/int32) without widening them.
func PackLike(xs []float64, proto Blob) Blob {
	if proto.Elem != ElemF64 && len(xs) != proto.Count() {
		return FromFloat64s(xs)
	}
	var out Blob
	switch proto.Elem {
	case ElemF32:
		v := make([]float32, len(xs))
		for i, x := range xs {
			f := float32(x)
			if float64(f) != x {
				return FromFloat64s(xs)
			}
			v[i] = f
		}
		out = FromFloat32s(v)
	case ElemI32:
		v := make([]int32, len(xs))
		for i, x := range xs {
			n := int32(x)
			if float64(n) != x {
				return FromFloat64s(xs)
			}
			v[i] = n
		}
		out = FromInt32s(v)
	case ElemI64:
		v := make([]int64, len(xs))
		for i, x := range xs {
			n := int64(x)
			if float64(n) != x {
				return FromFloat64s(xs)
			}
			v[i] = n
		}
		out = FromInt64s(v)
	case ElemBytes:
		data := make([]byte, len(xs))
		for i, x := range xs {
			c := byte(x)
			if float64(c) != x {
				return FromFloat64s(xs)
			}
			data[i] = c
		}
		out = Blob{Data: data}
	default:
		out = FromFloat64s(xs)
	}
	if n := 1; proto.Dims != nil {
		for _, d := range proto.Dims {
			n *= d
		}
		if n == len(xs) {
			out.Dims = append([]int(nil), proto.Dims...)
		}
	}
	return out
}
