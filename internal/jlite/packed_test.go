package jlite

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blob"
	"repro/internal/vecview"
)

// heavyFragment is ensemble_compute's julia leaf, with the vector length
// bound as n so that one parse serves every size.
const heavyFragment = "v = collect(1:n) .* argv1\ns = sum(v .* v .+ v)"

// TestVectorKernelAllocsFlatInN: a broadcast allocates its result column
// and nothing per element, so the fragment's allocation count does not
// grow with the vector length.
func TestVectorKernelAllocsFlatInN(t *testing.T) {
	in := New()
	in.SetGlobal("argv1", 1.5)
	allocs := map[int64]float64{}
	for _, n := range []int64{1_000, 10_000} {
		in.SetGlobal("n", n)
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := in.Exec(heavyFragment); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.0f allocs per fragment", n, allocs[n])
	}
	if allocs[1_000] != allocs[10_000] {
		t.Fatalf("allocs grow with n: %v", allocs)
	}
}

// TestColumnReadsBoxOnce: v[i] and iteration hand out boxed values, so
// a column unpacks at its first read and later passes over the same
// elements allocate nothing for them: four passes box each element once,
// not four times. Reads leave every later result as it was.
func TestColumnReadsBoxOnce(t *testing.T) {
	const frag = "v = collect(1:n) .* 1.5\nfor k in 1:4; for x in v; end; for i in 1:n; y = v[i]; end; end"
	in := New()
	allocs := map[int64]float64{}
	for _, n := range []int64{1_000, 10_000} {
		in.SetGlobal("n", n)
		allocs[n] = testing.AllocsPerRun(5, func() {
			if err := in.Exec(frag); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The loop counter i boxes once per read too once it passes 255.
	if perElem := (allocs[10_000] - allocs[1_000]) / 9_000; perElem > 1+4+0.01 {
		t.Fatalf("%.2f allocs per element over four passes (%v); want the column boxed once", perElem, allocs)
	}
	for _, tc := range []struct{ code, expr, want string }{
		{"v = ones(3); x = v[2]; push!(v, 2.0)", "string(v .* 2)", "[2.0, 2.0, 2.0, 4.0]"},
		{"v = collect(1:3); s = 0; for x in v; s += x; end", "string(s, \" \", sum(v), \" \", typeof(v))", "6 6 Vector"},
	} {
		if got := evalStr(t, New(), tc.code, tc.expr); got != tc.want {
			t.Fatalf("%s; %s = %q, want %q", tc.code, tc.expr, got, tc.want)
		}
	}
}

// FuzzPackedBroadcast is the differential check on the typed kernels:
// every operator broadcast reaches — the dot forms, binop's plain vector
// forms and unary minus — must give over columns, blob views, ranges and
// scalars exactly what the boxed path gives over the same elements, bit
// for bit, kind for kind and error for error, and each element must be
// what scalarBinop gives.
func FuzzPackedBroadcast(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 1, 2, 3})
	f.Add([]byte{4, 1, 0, 3, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{9, 4, 3, 2, 0, 200, 7})
	f.Add([]byte{14, 0, 5, 4, 130, 131, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{data: data}
		form := forms[int(g.next())%len(forms)]
		n := int(g.next() % 6)
		lPacked, lBoxed := g.operand(n)
		rPacked, rBoxed := g.operand(n + int(g.next()%4)/3) // now and then a length mismatch
		gotV, gotErr := evalForm(form.expr, lPacked, rPacked)
		wantV, wantErr := evalForm(form.expr, lBoxed, rBoxed)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, boxed %v", form.expr, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if msg := sameValue(gotV, wantV); msg != "" {
			t.Fatalf("%s on %s, %s: %s", form.expr, Str(lBoxed), Str(rBoxed), msg)
		}
		// And the result is scalarBinop per element.
		a, b := Value(lBoxed), Value(rBoxed)
		if form.swap {
			a, b = b, a
		}
		if form.neg {
			b = int64(-1)
		}
		ae, an := elemsOf(a)
		be, bn := elemsOf(b)
		got := []Value{gotV} // both scalars: a scalar result
		if arr, ok := gotV.(*Arr); ok {
			got = arr.items()
		} else if form.neg {
			return // a scalar's unary minus negates; it does not multiply
		}
		for i, w := range got {
			x, y := a, b
			if an >= 0 {
				x = ae[i]
			}
			if bn >= 0 {
				y = be[i]
			}
			ref, err := scalarBinop(form.op, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if msg := sameValue(w, ref); msg != "" {
				t.Fatalf("%s element %d: %s", form.expr, i+1, msg)
			}
		}
	})
}

// forms are the expressions that reach broadcast, each with the scalar
// operator it applies per element: swap puts r on the left, and neg is
// unary minus, which multiplies by -1.
var forms = []struct {
	expr, op  string
	swap, neg bool
}{
	{"l .+ r", "+", false, false}, {"l .- r", "-", false, false}, {"l .* r", "*", false, false},
	{"l ./ r", "/", false, false}, {"l .^ r", "^", false, false},
	{"r .- l", "-", true, false}, {"r ./ l", "/", true, false}, {"r .^ l", "^", true, false},
	{"l + r", "+", false, false}, {"l - r", "-", false, false}, {"l * r", "*", false, false},
	{"r * l", "*", true, false}, {"l / r", "/", false, false},
	{"-l", "*", false, true}, {"-r", "*", true, true},
}

func evalForm(expr string, l, r Value) (Value, error) {
	in := New()
	in.SetGlobal("l", l)
	in.SetGlobal("r", r)
	return in.EvalExpr(expr)
}

// gen draws operands from fuzz bytes, zero once they run out.
type gen struct {
	data []byte
	pos  int
}

func (g *gen) next() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return g.data[g.pos-1]
}

func (g *gen) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(g.next())
	}
	return x
}

var (
	intPalette   = []int64{0, 1, -1, 2, 3, -3, 7, 63, 64, math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1 << 53) - 1}
	floatPalette = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -2.5, 1e308, 5e-324, 3}
)

func (g *gen) int() int64 {
	if c := g.next(); c < 128 {
		return intPalette[int(c)%len(intPalette)]
	}
	return int64(g.u64())
}

func (g *gen) float() float64 {
	if c := g.next(); c < 128 {
		return floatPalette[int(c)%len(floatPalette)]
	}
	x := math.Float64frombits(g.u64())
	if math.IsNaN(x) {
		return math.NaN() // one NaN payload, so operand order cannot show
	}
	return x
}

// operand draws an Int64 or Float64 column of length n, a blob view, a
// range, or a scalar (Int64, Float64 or Bool), returning it packed and
// boxed.
func (g *gen) operand(n int) (packed, boxed Value) {
	switch g.next() % 7 {
	case 0, 1:
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = g.int()
		}
		return newArr(elems), &Arr{elems: elems}
	case 2, 3:
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = g.float()
		}
		return newArr(elems), &Arr{elems: elems}
	case 4:
		return g.view(n)
	case 5:
		// A range has no boxed form of its own: the boxed path boxes
		// its elements as it goes.
		lo := int64(int8(g.next()))
		r := &Range{Lo: lo, Hi: lo + int64(n) - 1}
		return r, r
	}
	switch g.next() % 3 {
	case 0:
		x := g.int()
		return x, x
	case 1:
		x := g.float()
		return x, x
	}
	b := g.next()%2 == 1
	return b, b
}

// view draws a blob argument's view of n elements of any element kind;
// its boxed form holds the elements as At decodes them.
func (g *gen) view(n int) (packed, boxed Value) {
	var b blob.Blob
	switch g.next() % 5 {
	case 0:
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.float()
		}
		b = blob.FromFloat64s(xs)
	case 1:
		ns := make([]int64, n)
		for i := range ns {
			ns[i] = g.int()
		}
		b = blob.FromInt64s(ns)
	case 2:
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(g.float())
		}
		b = blob.FromFloat32s(xs)
	case 3:
		ns := make([]int32, n)
		for i := range ns {
			ns[i] = int32(g.int())
		}
		b = blob.FromInt32s(ns)
	default:
		b = blob.New(make([]byte, n))
		for i := range b.Data {
			b.Data[i] = g.next()
		}
	}
	v, err := NewVec(b)
	if err != nil {
		panic(err)
	}
	return v, &Arr{elems: vecview.Items[Value](v)}
}

// sameValue compares two results bit for bit and kind for kind.
func sameValue(got, want Value) string {
	ga, okG := got.(*Arr)
	wa, okW := want.(*Arr)
	if okG != okW {
		return fmt.Sprintf("got %T, want %T", got, want)
	}
	if okG {
		gi, wi := ga.items(), wa.items()
		if len(gi) != len(wi) {
			return fmt.Sprintf("length %d, want %d", len(gi), len(wi))
		}
		for i := range gi {
			if msg := sameValue(gi[i], wi[i]); msg != "" {
				return fmt.Sprintf("element %d: %s", i+1, msg)
			}
		}
		return ""
	}
	switch w := want.(type) {
	case float64:
		if g, ok := got.(float64); !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("got %T %v, want Float64 %v (%#x)", got, got, w, math.Float64bits(w))
		}
		return ""
	}
	if got != want {
		return fmt.Sprintf("got %T %v, want %T %v", got, got, want, want)
	}
	return ""
}
