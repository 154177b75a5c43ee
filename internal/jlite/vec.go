package jlite

// One packed form serves both kinds of numeric array: internal/vecview's
// Vec, a typed vector whose elements decode on access from packed
// little-endian bytes.
//
// A blob argument enters Julia-like code as a Vec, a zero-copy view
// indexed 1-based — length(), v[i], iteration, v[i] = x — and when a
// fragment returns the Vec (or a mutated view of it), the backing bytes,
// the Fortran dims, and the element kind travel back out bit-exact,
// without the elements ever being rendered as text. Writes enforce
// exact-representability guards: integer writes into integer element
// kinds stay on an integer path (an int64 beyond 2^53 stores exactly),
// and narrowing that would lose bits is an error, not a silent
// truncation.
//
// An array born inside the interpreter is an Arr. While its elements are
// all Int64 or all Float64 it holds them as a column: a Vec over bytes
// it owns. Broadcasts, sum and length run as typed loops over columns,
// blob views, ranges and scalars (the kernels live in vecview), and a
// column leaves as a blob without repacking. A column unpacks into boxed
// elements, in place, at the first write it cannot hold — a push! or
// store of another kind (an Int into a Float64 column, a Bool anywhere) —
// and at its first scalar read, v[i] or iteration: a read hands out a
// boxed value, so boxing each element once keeps repeated reads free. A broadcast over a boxed operand, or one whose
// per-element result kind varies (Int ^ Int with exponents of both
// signs), runs per element through scalarBinop, and its result is a
// column again only if it is uniform. So every result, error and
// rendering reads as it would boxed.

import (
	"encoding/binary"
	"math"

	"repro/internal/blob"
	"repro/internal/vecview"
)

// Vec wraps a blob as a mutable typed vector value.
type Vec = vecview.Vec

// vecProfile keeps vecview's error text in this package's voice: the
// "jlite:" prefix and Julia type names, which vec_test pins.
var vecProfile = &vecview.Profile{
	Prefix:   "jlite",
	ToFloat:  func(x any) (float64, error) { return toFloat(x) },
	TypeName: func(x any) string { return typeName(x) },
}

// NewVec validates that the payload is a whole number of elements.
func NewVec(b blob.Blob) (*Vec, error) { return vecview.New(vecProfile, b) }

// PackValues packs a fresh numeric vector into a blob: all-integer
// vectors become an int64 vector — on an exact integer path, so values
// beyond 2^53 survive — and anything with a float becomes a float64
// vector.
func PackValues(items []Value) (blob.Blob, error) {
	return vecview.PackValues(vecProfile, items)
}

// FloatsExact converts fresh-vector elements to float64 for
// blob.PackLike repacking, rejecting int64 values a float64 cannot hold
// exactly.
func FloatsExact(items []Value) ([]float64, error) {
	return vecview.FloatsExact(vecProfile, items)
}

// Arr is a fresh 1-based numeric vector born inside the interpreter (an
// array literal, zeros(n), collect, a broadcast result), held packed as
// a column or boxed (see the file comment).
type Arr struct {
	col    *Vec    // packed: int64 or float64 elements, never empty
	elems  []Value // boxed, when col is nil: int64, float64 or bool
	shared bool    // col's bytes have left as a blob: copy before writing
}

// newArr holds elems as a column when they are all Int64 or all Float64.
func newArr(elems []Value) *Arr {
	if len(elems) == 0 {
		return &Arr{elems: elems}
	}
	switch elems[0].(type) {
	case int64:
		ns := make([]int64, len(elems))
		for i, it := range elems {
			n, ok := it.(int64)
			if !ok {
				return &Arr{elems: elems}
			}
			ns[i] = n
		}
		return packed(blob.FromInt64s(ns))
	case float64:
		xs := make([]float64, len(elems))
		for i, it := range elems {
			x, ok := it.(float64)
			if !ok {
				return &Arr{elems: elems}
			}
			xs[i] = x
		}
		return packed(blob.FromFloat64s(xs))
	}
	return &Arr{elems: elems}
}

// packed wraps a non-empty int64 or float64 blob as a column.
func packed(b blob.Blob) *Arr {
	v, _ := NewVec(b) // whole 8-byte elements by construction
	return &Arr{col: v}
}

// column wraps a kernel's result. An empty array stays boxed: it sums to
// Int64 0 and packs as int64, which a float64 column would not.
func column(v *Vec) *Arr {
	if v.Len() == 0 {
		return &Arr{elems: []Value{}}
	}
	return &Arr{col: v}
}

// Len returns the element count.
func (a *Arr) Len() int {
	if a.col != nil {
		return a.col.Len()
	}
	return len(a.elems)
}

// at decodes element i without unpacking a column (rendering).
func (a *Arr) at(i int) Value {
	if a.col != nil {
		return a.col.At(i)
	}
	return a.elems[i]
}

// read is v[i] and iteration's element i: a column unpacks first, so a
// loop that reads the same elements again allocates nothing for them.
func (a *Arr) read(i int) Value {
	a.unpack()
	return a.elems[i]
}

// items returns the elements boxed: a column's decoded afresh, a boxed
// array's own slice.
func (a *Arr) items() []Value {
	if a.col != nil {
		return vecview.Items[Value](a.col)
	}
	return a.elems
}

// unpack turns a column into boxed elements, for good.
func (a *Arr) unpack() {
	if a.col != nil {
		a.elems, a.col, a.shared = a.items(), nil, false
	}
}

// colKind reports whether v is a number a column of kind e holds as is.
func colKind(e blob.Elem, v Value) bool {
	switch v.(type) {
	case int64:
		return e == blob.ElemI64
	case float64:
		return e == blob.ElemF64
	}
	return false
}

// set stores the number v at 0-based i.
func (a *Arr) set(i int, v Value) {
	if a.col != nil && colKind(a.col.B.Elem, v) {
		if a.shared {
			a.col = vecview.Collect(vecProfile, vecview.Of(a.col), a.col.Len())
			a.shared = false
		}
		_ = a.col.SetAt(i, v) // cannot fail: the kinds match
		return
	}
	a.unpack()
	a.elems[i] = v
}

// push appends the number v. Growing a column never touches the bytes a
// shared column has handed out: they end at its old length.
func (a *Arr) push(v Value) {
	if a.col != nil && colKind(a.col.B.Elem, v) {
		bits := uint64(0)
		switch x := v.(type) {
		case int64:
			bits = uint64(x)
		case float64:
			bits = math.Float64bits(x)
		}
		a.col.B.Data = binary.LittleEndian.AppendUint64(a.col.B.Data, bits)
		return
	}
	a.unpack()
	a.elems = append(a.elems, v)
}

// operand is a vector's or scalar's kernel form; a boxed array, a string
// or any other value has none.
func operand(v Value) (vecview.Operand, bool) {
	switch x := v.(type) {
	case int64:
		return vecview.Int(x), true
	case bool:
		return vecview.Int(boolToInt(x)), true
	case float64:
		return vecview.Float(x), true
	case *Range:
		return vecview.Seq(x.Lo), true
	case *Vec:
		return vecview.Of(x), true
	case *Arr:
		if x.col != nil {
			return vecview.Of(x.col), true
		}
	}
	return vecview.Operand{}, false
}

// Pack hands the array out as a blob: a column leaves as its own bytes
// (a later write copies them first), a boxed array packs via PackValues.
func (a *Arr) Pack() (blob.Blob, error) {
	if a.col == nil {
		return PackValues(a.elems)
	}
	a.shared = true
	b := a.col.B
	b.Data = b.Data[:len(b.Data):len(b.Data)]
	return b, nil
}

// Floats converts the elements to float64 for blob.PackLike, refusing an
// Int64 a float64 cannot hold exactly (see FloatsExact).
func (a *Arr) Floats() ([]float64, error) {
	if a.col == nil {
		return FloatsExact(a.elems)
	}
	return vecview.ColumnFloats(a.col)
}

// Collect materialises the range as an Int64 array.
func (r *Range) Collect() *Arr {
	return column(vecview.Collect(vecProfile, vecview.Seq(r.Lo), r.Len()))
}
