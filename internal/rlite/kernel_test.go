package rlite

import (
	"math"
	"testing"
)

// heavyFragment is ensemble_compute's r leaf, with the vector length
// bound as n so that one parse serves every size.
const heavyFragment = "v <- (1:n) * argv1\ns <- sum(v * v + v)"

// TestVectorKernelAllocsFlatInN: a:b and each elementwise operator
// allocate their result vector and nothing per element, so the
// fragment's allocation count does not grow with the vector length.
func TestVectorKernelAllocsFlatInN(t *testing.T) {
	in := New()
	in.SetGlobal("argv1", Num(1.5))
	allocs := map[float64]float64{}
	for _, n := range []float64{1_000, 10_000} {
		in.SetGlobal("n", Num(n))
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := in.Exec(heavyFragment); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%.0f: %.0f allocs per fragment", n, allocs[n])
	}
	if allocs[1_000] != allocs[10_000] {
		t.Fatalf("allocs grow with n: %v", allocs)
	}
}

// TestKernelMatchesRecycling: the wrapped-index loops must give, bit
// for bit, R's recycling rule written here per element with i % len, for
// equal lengths, a length-1 operand and lengths that recycle.
func TestKernelMatchesRecycling(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 7, math.NaN(), math.Inf(1), math.Inf(-1), 3e300}
	shapes := [][2][]float64{
		{vals, vals},
		{vals, {2}},
		{{-3}, vals},
		{{0}, {math.NaN()}},
		{vals, {2, -0.5}},
		{{1, math.Copysign(0, -1), 4}, vals},
	}
	ops := []string{"+", "-", "*", "/", "^", "%%", "%/%", "==", "!=", "<", "<=", ">", ">="}
	for _, sh := range shapes {
		a, b := sh[0], sh[1]
		for _, op := range ops {
			got, err := rBinop(op, &NumVec{V: a}, &NumVec{V: b})
			if err != nil {
				t.Fatal(err)
			}
			n := recycleLen(len(a), len(b))
			for i := 0; i < n; i++ {
				x, y := a[i%len(a)], b[i%len(b)]
				switch g := got.(type) {
				case *NumVec:
					if w := refArith(op, x, y); math.Float64bits(g.V[i]) != math.Float64bits(w) {
						t.Fatalf("%v %s %v = %v, want %v", x, op, y, g.V[i], w)
					}
				case *BoolVec:
					if w := refCmp(op, x, y); g.V[i] != w {
						t.Fatalf("%v %s %v = %v, want %v", x, op, y, g.V[i], w)
					}
				}
			}
		}
	}
}

func refArith(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		return a / b
	case "^":
		return math.Pow(a, b)
	case "%%":
		return math.Mod(math.Mod(a, b)+b, b)
	}
	return math.Floor(a / b)
}

func refCmp(op string, a, b float64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	}
	return a >= b
}

// TestSeqPreallocated: a:b counts up or down and is one allocation,
// and a length too large to allocate is an error.
func TestSeqPreallocated(t *testing.T) {
	in := New()
	for _, tc := range []struct{ expr, want string }{
		{"1:3", "1 2 3"},
		{"3:1", "3 2 1"},
		{"-1:1", "-1 0 1"},
		{"5:5", "5"},
	} {
		got, err := in.EvalFragment("", tc.expr)
		if err != nil || got != tc.want {
			t.Fatalf("%s = %q, %v; want %q", tc.expr, got, err, tc.want)
		}
	}
	if _, err := in.EvalFragment("", "1:3e9"); err == nil || err.Error() != "rlite: result would be too long a vector" {
		t.Fatalf("1:3e9 err = %v", err)
	}
	lo, hi := Num(1), Num(100_000)
	if a := testing.AllocsPerRun(10, func() { _, _ = rBinop(":", lo, hi) }); a != 2 {
		t.Fatalf("1:100000 allocs = %v, want 2 (the slice and its NumVec)", a)
	}
}
