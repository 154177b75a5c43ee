package pylite

// Slots and unboxed numbers: the scalar loop allocates nothing per
// iteration, a call allocates its frame alone, the global slot table
// stays bounded across Resets, and the unboxed and boxed routes through
// arith agree.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// heavyFragment is ensemble_compute's python leaf at n iterations.
func heavyFragment(n int) string {
	return fmt.Sprintf("s = 0.0\nfor k in range(%d):\n    s = s + (k %% 7) * argv1", n)
}

// fragmentAllocs counts what running code and evaluating expr
// allocates; str() of the result is left out, as its cost depends on the
// digits.
func fragmentAllocs(t *testing.T, in *Interp, code, expr string) float64 {
	t.Helper()
	run := func() {
		if err := in.Exec(code); err != nil {
			t.Fatal(err)
		}
		if _, err := in.EvalExpr(expr); err != nil {
			t.Fatal(err)
		}
	}
	run() // parse and number the globals
	return testing.AllocsPerRun(5, run)
}

func TestScalarLoopAllocsFlatInN(t *testing.T) {
	in := New()
	in.SetGlobal("argv1", 1.5)
	small := fragmentAllocs(t, in, heavyFragment(1000), "s")
	large := fragmentAllocs(t, in, heavyFragment(10000), "s")
	t.Logf("scalar loop: %v allocs at n=1e3, %v at n=1e4", small, large)
	if small != large {
		t.Errorf("scalar loop allocations grow with n: %v at 1e3, %v at 1e4", small, large)
	}

	// A call allocates its frame and nothing else: no map, no boxed
	// argument or result.
	if err := in.Exec("def f(a):\n    return a * 2"); err != nil {
		t.Fatal(err)
	}
	call := func(n int) string { return fmt.Sprintf("s = 0\nfor k in range(%d):\n    s = s + f(k)", n) }
	small = fragmentAllocs(t, in, call(1000), "s")
	large = fragmentAllocs(t, in, call(10000), "s")
	t.Logf("call loop: %v allocs at n=1e3, %v at n=1e4", small, large)
	if large-small != 9000 {
		t.Errorf("call loop: %v allocs at 1e3, %v at 1e4; want one frame per call", small, large)
	}
}

func BenchmarkScalarLoop(b *testing.B) {
	in := New()
	code := heavyFragment(4000)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		in.SetGlobal("argv1", 1.5+float64(i))
		if _, err := in.EvalFragment(code, "s"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGlobalSlotsBoundedAcrossResets(t *testing.T) {
	in := New()
	// A comment pads each fragment so the parse cache reaches its byte
	// budget within the first half and holds steady after it.
	pad := "  # " + strings.Repeat("x", 300)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var mid uint64
	for i := 0; i < 10000; i++ {
		if i%100 == 0 {
			in.Reset()
		}
		if i == 5000 {
			mid = heap()
		}
		name := fmt.Sprintf("g%d", i)
		if _, err := in.EvalFragment(name+" = "+fmt.Sprint(i)+pad, name+pad); err != nil {
			t.Fatal(err)
		}
		if len(in.gslots) > 100 || len(in.gindex) > 100 {
			t.Fatalf("after %d fragments: %d slots, %d names", i+1, len(in.gslots), len(in.gindex))
		}
	}
	end := heap()
	t.Logf("live heap %d bytes at fragment 5000, %d at 10000", mid, end)
	if end > mid+1<<20 {
		t.Errorf("live heap grew from %d to %d bytes over the second 5000 fragments", mid, end)
	}
	// The last epoch's names are gone after a Reset, through cached
	// fragments too, even where a new name took an old name's slot.
	in.Reset()
	if _, err := in.EvalFragment("fresh = 1", "fresh"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("g9999"); err == nil {
		t.Fatalf("stale global read after Reset: %v", Str(v))
	}
	if v, err := in.EvalExpr("g9900"); err == nil {
		t.Fatalf("stale global read through a reused slot: %v", Str(v))
	}
}

// TestNamesResolveAsBefore pins what slot resolution keeps of the
// dynamic lookup it replaced.
func TestNamesResolveAsBefore(t *testing.T) {
	in := New()
	exec(t, in, `
x = 'global'
def readfirst():
    y = x
    x = 'local'
    return y + ' ' + x

def outer():
    n = 1
    def inner():
        return n + 1
    n = 10
    return inner()

def loop():
    out = 0
    for i in range(3):
        if i > 0:
            out = out + prev
        prev = i * 10
    return out

def shadow(len):
    return len + 1

def deleted():
    z = 5
    del z
    return z
`)
	expectStr(t, in, "readfirst()", "global local")
	expectStr(t, in, "outer()", "11")
	expectStr(t, in, "loop()", "10")
	expectStr(t, in, "shadow(1)", "2")
	expectStr(t, in, "len('ab')", "2")
	exec(t, in, "z = 'outer z'")
	expectStr(t, in, "deleted()", "outer z")
	// A module-scope name a fragment binds shadows a builtin, and del
	// uncovers it again.
	exec(t, in, "range = 7")
	expectStr(t, in, "range", "7")
	exec(t, in, "del range")
	expectStr(t, in, "range(2)", "[0, 1]")
	// for over a rebound range takes the generic route.
	exec(t, in, "range = lambda n: [n, n]\ntot = 0\nfor v in range(4):\n    tot = tot + v\ndel range")
	expectStr(t, in, "tot", "8")
}

func TestForRangeArgumentsEvaluateOnce(t *testing.T) {
	in := New()
	exec(t, in, `
calls = []
def hi():
    calls.append(1)
    return 3
t = 0
for i in range(hi()):
    t = t + i
`)
	expectStr(t, in, "len(calls)", "1")
	expectStr(t, in, "t", "3")
	for code, want := range map[string]string{
		"for i in range(1.5):\n    pass":        "range() needs ints",
		"for i in range(1, 'a'):\n    pass":     "range() needs ints",
		"for i in range(0, 5, 0):\n    pass":    "step must be a non-zero int",
		"for i in range():\n    pass":           "takes 1-3 arguments",
		"for i in range(1, 2, 3, 4):\n    pass": "takes 1-3 arguments",
	} {
		if err := in.Exec(code); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want %q", code, err, want)
		}
	}
	exec(t, in, "s = 0\nfor i in range(10, 0, -3):\n    s = s * 100 + i")
	expectStr(t, in, "s", "10070401")
	exec(t, in, "s = 0\nfor i in range(9223372036854775805, 9223372036854775807):\n    s = s + 1")
	expectStr(t, in, "s", "2")
}

func TestIntPowIsSquaring(t *testing.T) {
	in := New()
	for b := int64(-3); b <= 3; b++ {
		want := int64(1)
		for e := int64(0); e <= 70; e++ {
			v := evalExpr(t, in, fmt.Sprintf("(%d) ** %d", b, e))
			if got, ok := v.(int64); !ok || got != want {
				t.Fatalf("(%d) ** %d = %v, want %d", b, e, Str(v), want)
			}
			want *= b
		}
	}
	done := make(chan Value, 1)
	go func() {
		v, _ := in.EvalExpr(fmt.Sprintf("3 ** %d", int64(1)<<62))
		done <- v
	}()
	select {
	case v := <-done:
		if v == nil {
			t.Fatal("3 ** (1 << 62) failed")
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("3 ** (1 << 62) still running after 100 ms")
	}
}

// TestNumbersEqualAcrossKinds: every expected string is what python3
// (3.11) prints for the expression.
func TestNumbersEqualAcrossKinds(t *testing.T) {
	in := New()
	for _, c := range [][2]string{
		{"True == 1", "True"},
		{"1.0 == True", "True"},
		{"{1: 'a'}.get(1.0)", "a"},
		{"1.0 in {1: 2}", "True"},
		{"{True: 'x'}[1]", "x"},
		{"{0: 'z'}[-0.0]", "z"},
		{"{1: 'a', 1.0: 'b'}", "{1: 'b'}"},
		{"{1.0: 'f', True: 't'}", "{1.0: 't'}"},
		{"1 != 1.0", "False"},
		{"True != 1", "False"},
		{"[1, 2].index(True)", "0"},
		{"[0, 1.0].index(True)", "1"},
		{"True in [1]", "True"},
		{"2 ** 53 + 1 == 2.0 ** 53", "False"},
		{"0 == -0.0", "True"},
		{"{-0.0: 1}[0]", "1"},
		{"len({0: 1, False: 2, 0.0: 3})", "1"},
		{"{True: 1}.get(1.0, 9)", "1"},
	} {
		expectStr(t, in, c[0], c[1])
	}
	exec(t, in, "d = {1: 'a', 2: 'b'}\ndel d[1.0]")
	expectStr(t, in, "d", "{2: 'b'}")
}

// operand draws a number from a fuzz kind and bits: an int, a float or
// a bool.
func operand(kind uint8, bits uint64) Value {
	switch kind % 3 {
	case 0:
		return int64(bits)
	case 1:
		return math.Float64frombits(bits)
	}
	return bits&1 == 1
}

// sameNumber is bit-for-bit and kind-for-kind equality of two results.
func sameNumber(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case int64, bool:
		return a == b
	}
	return false
}

// FuzzNumericRoutes checks that x op y agrees whether the operands sit
// unboxed in module-scope slots, come boxed out of a list, or go
// through binop as Values.
func FuzzNumericRoutes(f *testing.F) {
	// Every operator over a spread of operands: zeros of both signs, NaN,
	// the infinities, the int extremes, ints past 2^53, bools, and signs
	// mixed for //, % and negative ** exponents.
	type num struct {
		kind uint8
		bits uint64
	}
	i := func(n int64) num { return num{0, uint64(n)} }
	fl := func(x float64) num { return num{1, math.Float64bits(x)} }
	spread := []num{
		i(0), i(1), i(-1), i(7), i(-7), i(3), i(-2), i(math.MinInt64), i(math.MaxInt64), i(1<<53 + 1),
		fl(0), fl(math.Copysign(0, -1)), fl(math.NaN()), fl(math.Inf(1)), fl(math.Inf(-1)),
		fl(2.5), fl(-2.5), fl(1 << 53), fl(0x1p63), fl(-0x1p63), {2, 1}, {2, 0},
	}
	for op := opAdd; op < opIn; op++ {
		for _, x := range spread {
			for _, y := range spread {
				f.Add(x.kind, x.bits, y.kind, y.bits, uint8(op))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kx uint8, bx uint64, ky uint8, by uint64, op uint8) {
		x, y := operand(kx, bx), operand(ky, by)
		o := opcode(op % uint8(opIn))
		in := New()
		in.SetGlobal("x", x)
		in.SetGlobal("y", y)
		src := "x " + opText[o] + " y"
		slots, errS := in.EvalExpr(src)
		boxed, errB := in.EvalExpr("[x][0] " + opText[o] + " [y][0]")
		direct, errD := binop(o, x, y)
		if (errS == nil) != (errB == nil) || (errS == nil) != (errD == nil) {
			t.Fatalf("%s with x=%#v y=%#v: errors %v / %v / %v", src, x, y, errS, errB, errD)
		}
		if errS != nil {
			if errS.Error() != errB.Error() || errS.Error() != errD.Error() {
				t.Fatalf("%s with x=%#v y=%#v: errors %v / %v / %v", src, x, y, errS, errB, errD)
			}
			return
		}
		if !sameNumber(slots, boxed) || !sameNumber(slots, direct) {
			t.Fatalf("%s with x=%#v y=%#v: slots %#v, list %#v, binop %#v", src, x, y, slots, boxed, direct)
		}
	})
}
