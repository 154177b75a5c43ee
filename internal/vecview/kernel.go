package vecview

// The elementwise kernels: typed loops over packed columns, blob views,
// integer sequences and scalars, with no per-element interface value. A
// column is a Vec whose bytes the interpreter owns (an array born inside
// it) rather than a blob argument's, always int64 or float64; a kernel
// reads either kind of Vec, so the loops live here once.

import (
	"encoding/binary"
	"math"

	"repro/internal/blob"
)

// Op is an elementwise arithmetic operator.
type Op byte

// Operators.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Pow
)

type srcKind byte

const (
	srcInt   srcKind = iota // the scalar n (x holds float64(n))
	srcFloat                // the scalar x
	srcSeq                  // n, n+1, n+2, ...
	srcI64                  // packed int64 bytes b
	srcF64                  // packed float64 bytes b
)

// Operand is one side of a kernel: a scalar repeated across the length,
// an integer sequence, or a Vec's elements.
type Operand struct {
	kind srcKind
	b    []byte
	n    int64
	x    float64
}

// Int is the scalar n repeated.
func Int(n int64) Operand { return Operand{kind: srcInt, n: n, x: float64(n)} }

// Float is the scalar x repeated.
func Float(x float64) Operand { return Operand{kind: srcFloat, x: x} }

// Seq is the sequence lo, lo+1, lo+2, ...
func Seq(lo int64) Operand { return Operand{kind: srcSeq, n: lo} }

// Of reads v's elements as At decodes them: int64 for integer kinds,
// float64 for float kinds. Kinds other than int64 and float64 widen into
// a packed copy first, one pass and one allocation.
func Of(v *Vec) Operand {
	n := v.Len()
	switch v.B.Elem {
	case blob.ElemI64:
		return Operand{kind: srcI64, b: v.B.Data}
	case blob.ElemF64:
		return Operand{kind: srcF64, b: v.B.Data}
	case blob.ElemF32:
		out := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			putF(out, i, float64(math.Float32frombits(binary.LittleEndian.Uint32(v.B.Data[4*i:]))))
		}
		return Operand{kind: srcF64, b: out}
	case blob.ElemI32:
		out := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			putI(out, i, int64(int32(binary.LittleEndian.Uint32(v.B.Data[4*i:]))))
		}
		return Operand{kind: srcI64, b: out}
	}
	out := make([]byte, 8*n)
	for i, c := range v.B.Data {
		putI(out, i, int64(c))
	}
	return Operand{kind: srcI64, b: out}
}

func (o *Operand) isInt() bool { return o.kind != srcFloat && o.kind != srcF64 }

// i reads element k of an integer operand.
func (o *Operand) i(k int) int64 {
	switch o.kind {
	case srcI64:
		return int64(binary.LittleEndian.Uint64(o.b[8*k:]))
	case srcSeq:
		return o.n + int64(k)
	}
	return o.n
}

// f reads element k as a float64, converting integers as float64(n).
func (o *Operand) f(k int) float64 {
	switch o.kind {
	case srcF64:
		return math.Float64frombits(binary.LittleEndian.Uint64(o.b[8*k:]))
	case srcI64:
		return float64(int64(binary.LittleEndian.Uint64(o.b[8*k:])))
	case srcSeq:
		return float64(o.n + int64(k))
	}
	return o.x
}

func putI(b []byte, k int, n int64) { binary.LittleEndian.PutUint64(b[8*k:], uint64(n)) }

func putF(b []byte, k int, x float64) {
	binary.LittleEndian.PutUint64(b[8*k:], math.Float64bits(x))
}

// column allocates a zeroed packed vector of n elements of kind e
// (blob.ElemI64 or blob.ElemF64).
func column(p *Profile, e blob.Elem, n int) *Vec {
	return &Vec{B: blob.Blob{Data: make([]byte, 8*n), Elem: e}, p: p}
}

// Collect materialises n elements of o as a fresh column: int64 for an
// integer operand, float64 otherwise (a scalar fills it).
func Collect(p *Profile, o Operand, n int) *Vec {
	if o.isInt() {
		out := column(p, blob.ElemI64, n)
		if o.kind == srcI64 {
			copy(out.B.Data, o.b)
			return out
		}
		for k := 0; k < n; k++ {
			putI(out.B.Data, k, o.i(k))
		}
		return out
	}
	out := column(p, blob.ElemF64, n)
	o.load(out.B.Data, n)
	return out
}

// Map applies f to n elements of o, each read as a float64, into a fresh
// float64 column.
func Map(p *Profile, o Operand, n int, f func(float64) float64) *Vec {
	out := column(p, blob.ElemF64, n)
	for k := 0; k < n; k++ {
		putF(out.B.Data, k, f(o.f(k)))
	}
	return out
}

// Elementwise applies op to n elements of l and r into a fresh column,
// under the Int64/Float64 number tower jlite follows. Two integer
// operands give an int64 column whose arithmetic wraps, except that / is
// true division (a float64 column) and ^ with a negative exponent is
// math.Pow on the converted operands; a float64 operand on either side
// makes a float64 column. It reports false, with no column, when the
// result's element kind would vary: Int ^ Int with exponents of both
// signs.
//
// The loops run in two passes: l is loaded into the result column, then
// op folds r into it in place, r read with stride 8 (a vector) or 0 (a
// scalar), so each operator is one branch-free loop.
func Elementwise(p *Profile, op Op, l, r Operand, n int) (*Vec, bool) {
	if !l.isInt() || !r.isInt() {
		return floatLoop(p, op, l, r, n), true
	}
	switch op {
	case Div:
		out := column(p, blob.ElemF64, n)
		for k := 0; k < n; k++ {
			putF(out.B.Data, k, intDiv(l.i(k), r.i(k)))
		}
		return out, true
	case Pow:
		neg, nonneg := false, false
		for k := 0; k < n; k++ {
			if r.i(k) < 0 {
				neg = true
			} else {
				nonneg = true
			}
		}
		if neg && nonneg {
			return nil, false
		}
		if neg {
			return floatLoop(p, op, l, r, n), true
		}
	}
	out := Collect(p, l, n)
	b := out.B.Data
	var one [8]byte
	rb, rs := r.stride(blob.ElemI64, one[:], n)
	get := func(b []byte, off int) int64 { return int64(binary.LittleEndian.Uint64(b[off:])) }
	put := func(off int, x int64) { binary.LittleEndian.PutUint64(b[off:], uint64(x)) }
	switch op {
	case Add:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)+get(rb, o))
		}
	case Sub:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)-get(rb, o))
		}
	case Mul:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)*get(rb, o))
		}
	case Pow:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, IntPow(get(b, k), get(rb, o)))
		}
	}
	return out, true
}

func floatLoop(p *Profile, op Op, l, r Operand, n int) *Vec {
	out := column(p, blob.ElemF64, n)
	b := out.B.Data
	l.load(b, n)
	var one [8]byte
	rb, rs := r.stride(blob.ElemF64, one[:], n)
	get := func(b []byte, off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])) }
	put := func(off int, x float64) { binary.LittleEndian.PutUint64(b[off:], math.Float64bits(x)) }
	switch op {
	case Add:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)+get(rb, o))
		}
	case Sub:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)-get(rb, o))
		}
	case Mul:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)*get(rb, o))
		}
	case Div:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, get(b, k)/get(rb, o))
		}
	case Pow:
		for k, o := 0, 0; k < len(b); k, o = k+8, o+rs {
			put(k, math.Pow(get(b, k), get(rb, o)))
		}
	}
	return out
}

// load writes n elements of o into b as float64s.
func (o *Operand) load(b []byte, n int) {
	switch o.kind {
	case srcF64:
		copy(b, o.b)
	case srcFloat, srcInt:
		if o.x != 0 || math.Signbit(o.x) {
			for k := 0; k < n; k++ {
				putF(b, k, o.x)
			}
		}
	default:
		for k := 0; k < n; k++ {
			putF(b, k, o.f(k))
		}
	}
}

// stride lays o out for a fold under element kind e (blob.ElemI64 for an
// integer operand, blob.ElemF64 otherwise): a packed vector of that kind
// is read in place with stride 8, a scalar from one (8 bytes) with
// stride 0, and anything else from a converted copy.
func (o *Operand) stride(e blob.Elem, one []byte, n int) ([]byte, int) {
	switch {
	case e == blob.ElemI64 && o.kind == srcI64, e == blob.ElemF64 && o.kind == srcF64:
		return o.b, 8
	case e == blob.ElemI64 && o.kind == srcInt:
		putI(one, 0, o.n)
		return one, 0
	case e == blob.ElemF64 && (o.kind == srcInt || o.kind == srcFloat):
		putF(one, 0, o.x)
		return one, 0
	case e == blob.ElemI64:
		return Collect(nil, *o, n).B.Data, 8
	}
	b := make([]byte, 8*n)
	o.load(b, n)
	return b, 8
}

// intDiv is Int / Int: true division, with x/0 an infinity of x's sign
// and 0/0 math.NaN().
func intDiv(a, b int64) float64 {
	if b == 0 {
		if a == 0 {
			return math.NaN()
		}
		if a < 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	return float64(a) / float64(b)
}

// IntPow is an int raised to an exponent e >= 0 by squaring: O(log e),
// so a huge computed exponent cannot spin a worker, and wrapping on
// overflow exactly as e repeated multiplications would. The int power
// operators of pylite and jlite and the int64 column kernel share it.
func IntPow(base, e int64) int64 {
	out := int64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

// ColumnFloats decodes a column (an int64 or float64 Vec) as float64s
// for blob.PackLike, refusing, in the column's Profile voice, an int64 a
// float64 cannot hold exactly.
func ColumnFloats(col *Vec) ([]float64, error) {
	if col.B.Elem == blob.ElemF64 {
		return blob.ToFloat64s(blob.Blob{Data: col.B.Data})
	}
	out := make([]float64, col.Len())
	for k := range out {
		f, err := col.p.exactFloat(int64(binary.LittleEndian.Uint64(col.B.Data[8*k:])))
		if err != nil {
			return nil, err
		}
		out[k] = f
	}
	return out, nil
}
