// Package vecview is the zero-copy binding of blob bulk data into an
// embedded interpreter (the SLIRP technique the interlanguage layer
// borrows): a typed packed numeric vector whose elements decode on
// access from the backing bytes. A blob argument enters the language as
// a Vec that behaves like a native sequence — length, indexing,
// iteration, element assignment — and when a fragment returns the Vec
// (or an unmodified view of it), the backing bytes, the Fortran dims,
// and the element kind travel back out bit-exact, without the elements
// ever being rendered as text.
//
// jlite also holds an array born inside it in this form while its
// elements are all int64 or all float64 (a column), and the elementwise
// kernels in kernel.go run as typed loops over columns and blob views
// alike.
//
// pylite and jlite share this one implementation; each configures a
// Profile so error messages keep their package's prefix and type
// vocabulary ("pylite: ... got str" vs "jlite: ... got String"), which
// their tests pin.
package vecview

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/blob"
)

// Profile carries the embedding language's identity into error text:
// its prefix, its number coercion (whose errors are already prefixed),
// and its name for a value's type.
type Profile struct {
	Prefix   string
	ToFloat  func(x any) (float64, error)
	TypeName func(x any) string
}

// Vec wraps a blob as a mutable typed vector value.
type Vec struct {
	B blob.Blob
	p *Profile
}

// New validates that the payload is a whole number of elements.
func New(p *Profile, b blob.Blob) (*Vec, error) {
	if sz := b.Elem.Size(); len(b.Data)%sz != 0 {
		return nil, fmt.Errorf("%s: %d bytes is not a whole number of %s elements", p.Prefix, len(b.Data), b.Elem)
	}
	return &Vec{B: b, p: p}, nil
}

// Len returns the element count.
func (v *Vec) Len() int { return v.B.Count() }

// At decodes element i (0-based; 1-based languages convert before
// calling): float64 for float element kinds, int64 for integer kinds
// and raw bytes.
func (v *Vec) At(i int) any {
	switch v.B.Elem {
	case blob.ElemF64:
		return math.Float64frombits(binary.LittleEndian.Uint64(v.B.Data[8*i:]))
	case blob.ElemF32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(v.B.Data[4*i:])))
	case blob.ElemI32:
		return int64(int32(binary.LittleEndian.Uint32(v.B.Data[4*i:])))
	case blob.ElemI64:
		return int64(binary.LittleEndian.Uint64(v.B.Data[8*i:]))
	}
	return int64(v.B.Data[i])
}

// SetAt writes element i in place (0-based), enforcing exact
// representability under the vector's element kind (narrowing that
// would lose bits is an error, not a silent truncation). Integer inputs
// into integer element kinds stay on an integer path: routing an int64
// through float64 would silently round magnitudes beyond 2^53 —
// exactly the class of defect the rlite decoder rejects on its side of
// the boundary. Bools write as 0/1 on the integer path.
func (v *Vec) SetAt(i int, x any) error {
	if b, ok := x.(bool); ok {
		if b {
			x = int64(1)
		} else {
			x = int64(0)
		}
	}
	if n, ok := x.(int64); ok {
		switch v.B.Elem {
		case blob.ElemI64:
			binary.LittleEndian.PutUint64(v.B.Data[8*i:], uint64(n))
			return nil
		case blob.ElemI32:
			m := int32(n)
			if int64(m) != n {
				return fmt.Errorf("%s: %d is not representable as int32", v.p.Prefix, n)
			}
			binary.LittleEndian.PutUint32(v.B.Data[4*i:], uint32(m))
			return nil
		case blob.ElemBytes:
			if n < 0 || n > 255 {
				return fmt.Errorf("%s: %d is not representable as a byte", v.p.Prefix, n)
			}
			v.B.Data[i] = byte(n)
			return nil
		}
		// Float element kinds: the integer must be exactly representable
		// in float64 before the float path may narrow it further.
		f, ok := exactFloat(n)
		if !ok {
			return fmt.Errorf("%s: %d is not representable as %s", v.p.Prefix, n, v.B.Elem)
		}
		return v.setFloat(i, f)
	}
	f, err := v.p.ToFloat(x)
	if err != nil {
		return err
	}
	return v.setFloat(i, f)
}

func (v *Vec) setFloat(i int, f float64) error {
	switch v.B.Elem {
	case blob.ElemF64:
		binary.LittleEndian.PutUint64(v.B.Data[8*i:], math.Float64bits(f))
		return nil
	case blob.ElemF32:
		n := float32(f)
		if float64(n) != f {
			return fmt.Errorf("%s: %v is not representable as float32", v.p.Prefix, f)
		}
		binary.LittleEndian.PutUint32(v.B.Data[4*i:], math.Float32bits(n))
		return nil
	case blob.ElemI32:
		n := int32(f)
		if float64(n) != f {
			return fmt.Errorf("%s: %v is not representable as int32", v.p.Prefix, f)
		}
		binary.LittleEndian.PutUint32(v.B.Data[4*i:], uint32(n))
		return nil
	case blob.ElemI64:
		n := int64(f)
		if float64(n) != f {
			return fmt.Errorf("%s: %v is not representable as int64", v.p.Prefix, f)
		}
		binary.LittleEndian.PutUint64(v.B.Data[8*i:], uint64(n))
		return nil
	}
	n := byte(f)
	if float64(n) != f {
		return fmt.Errorf("%s: %v is not representable as a byte", v.p.Prefix, f)
	}
	v.B.Data[i] = n
	return nil
}

// Sum adds all elements without boxing: int64 for integer element
// kinds, float64 for float kinds.
func (v *Vec) Sum() any {
	n := v.Len()
	switch v.B.Elem {
	case blob.ElemF64:
		s := 0.0
		for i := 0; i < n; i++ {
			s += math.Float64frombits(binary.LittleEndian.Uint64(v.B.Data[8*i:]))
		}
		return s
	case blob.ElemF32:
		s := 0.0
		for i := 0; i < n; i++ {
			s += float64(math.Float32frombits(binary.LittleEndian.Uint32(v.B.Data[4*i:])))
		}
		return s
	case blob.ElemI32:
		var s int64
		for i := 0; i < n; i++ {
			s += int64(int32(binary.LittleEndian.Uint32(v.B.Data[4*i:])))
		}
		return s
	case blob.ElemI64:
		var s int64
		for i := 0; i < n; i++ {
			s += int64(binary.LittleEndian.Uint64(v.B.Data[8*i:]))
		}
		return s
	}
	var s int64
	for _, c := range v.B.Data {
		s += int64(c)
	}
	return s
}

// Items materialises the vector as boxed values (iteration, sum, ...),
// in the embedding language's value type.
func Items[V any](v *Vec) []V {
	out := make([]V, v.Len())
	for i := range out {
		out[i] = any(v.At(i)).(V)
	}
	return out
}

// PackValues packs a numeric sequence into a blob: all-integer input
// becomes an int64 vector — on an exact integer path, so values beyond
// 2^53 survive — and anything with a float becomes a float64 vector.
// This is how a sequence born inside an interpreter (a comprehension, a
// literal, a broadcast result) leaves as bulk data when no argument
// prototype constrains the element kind.
func PackValues[V any](p *Profile, items []V) (blob.Blob, error) {
	allInt := true
	xs := make([]float64, len(items))
	ns := make([]int64, len(items))
	for i, it := range items {
		switch n := any(it).(type) {
		case int64:
			ns[i] = n
			xs[i] = float64(n)
		case bool:
			if n {
				ns[i], xs[i] = 1, 1
			}
		case float64:
			allInt = false
			xs[i] = n
		default:
			return blob.Blob{}, fmt.Errorf("%s: cannot pack non-numeric %s into a blob", p.Prefix, p.TypeName(n))
		}
	}
	if allInt {
		return blob.FromInt64s(ns), nil
	}
	return blob.FromFloat64s(xs), nil
}

// FloatsExact converts sequence elements to float64 for blob.PackLike
// repacking, rejecting int64 values a float64 cannot hold exactly (the
// prototype path narrows through float64, and a rounded value would
// repack "bit-exact" to the wrong integer — the same guard rlite
// applies when decoding int64 blobs).
func FloatsExact[V any](p *Profile, items []V) ([]float64, error) {
	out := make([]float64, len(items))
	for i, it := range items {
		if n, ok := any(it).(int64); ok {
			f, err := p.exactFloat(n)
			if err != nil {
				return nil, err
			}
			out[i] = f
			continue
		}
		f, err := p.ToFloat(it)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// exactFloat converts n to float64, reporting whether the conversion is
// exact. 2^63 is the one round-trip boundary int64(f) cannot probe
// safely.
func exactFloat(n int64) (float64, bool) {
	const twoTo63 = float64(9223372036854775808)
	f := float64(n)
	return f, f != twoTo63 && int64(f) == n
}

// exactFloat is exactFloat with FloatsExact's error.
func (p *Profile) exactFloat(n int64) (float64, error) {
	f, ok := exactFloat(n)
	if !ok {
		return 0, fmt.Errorf("%s: int64 value %d is not exactly representable as a float64", p.Prefix, n)
	}
	return f, nil
}
