package pylite

import (
	"strings"
	"testing"
	"testing/quick"
)

func evalExpr(t *testing.T, in *Interp, expr string) Value {
	t.Helper()
	v, err := in.EvalExpr(expr)
	if err != nil {
		t.Fatalf("EvalExpr(%q): %v", expr, err)
	}
	return v
}

func exec(t *testing.T, in *Interp, code string) {
	t.Helper()
	if err := in.Exec(code); err != nil {
		t.Fatalf("Exec(%q): %v", code, err)
	}
}

func expectStr(t *testing.T, in *Interp, expr, want string) {
	t.Helper()
	v := evalExpr(t, in, expr)
	if got := Str(v); got != want {
		t.Fatalf("str(%s) = %q, want %q", expr, got, want)
	}
}

func TestArithmetic(t *testing.T) {
	in := New()
	cases := [][2]string{
		{"1 + 2", "3"},
		{"10 - 4", "6"},
		{"6 * 7", "42"},
		{"7 / 2", "3.5"}, // Python 3 true division
		{"7 // 2", "3"},
		{"-7 // 2", "-4"},
		{"7 % 3", "1"},
		{"-7 % 3", "2"},
		{"2 ** 10", "1024"},
		{"2 ** -1", "0.5"},
		{"1.5 + 2.5", "4.0"},
		{"2 * 3.0", "6.0"},
		{"-5", "-5"},
		{"-(2 + 3)", "-5"},
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"abs(-3)", "3"},
		{"abs(-3.5)", "3.5"},
		{"round(3.7)", "4"},
		{"round(3.14159, 2)", "3.14"},
	}
	for _, c := range cases {
		expectStr(t, in, c[0], c[1])
	}
}

func TestComparisonAndLogic(t *testing.T) {
	in := New()
	cases := [][2]string{
		{"1 < 2", "True"},
		{"2 <= 1", "False"},
		{"3 == 3.0", "True"},
		{"1 != 2", "True"},
		{"'a' < 'b'", "True"},
		{"'abc' == 'abc'", "True"},
		{"True and False", "False"},
		{"True or False", "True"},
		{"not True", "False"},
		{"1 and 2", "2"}, // short-circuit returns operand
		{"0 or 'x'", "x"},
		{"3 in [1, 2, 3]", "True"},
		{"4 in [1, 2, 3]", "False"},
		{"'el' in 'hello'", "True"},
		{"'k' in {'k': 1}", "True"},
	}
	for _, c := range cases {
		expectStr(t, in, c[0], c[1])
	}
}

func TestStringOps(t *testing.T) {
	in := New()
	cases := [][2]string{
		{"'foo' + 'bar'", "foobar"},
		{"'ab' * 3", "ababab"},
		{"len('hello')", "5"},
		{"'hello'[1]", "e"},
		{"'hello'[-1]", "o"},
		{"'hello'[1:3]", "el"},
		{"'hello'[:2]", "he"},
		{"'hello'[2:]", "llo"},
		{"'HeLLo'.lower()", "hello"},
		{"'hello'.upper()", "HELLO"},
		{"'  x  '.strip()", "x"},
		{"'a,b,c'.split(',')[1]", "b"},
		{"'-'.join(['a', 'b'])", "a-b"},
		{"'hello'.startswith('he')", "True"},
		{"'hello'.endswith('lo')", "True"},
		{"'hello'.replace('l', 'L')", "heLLo"},
		{"'x={}, y={}'.format(1, 2)", "x=1, y=2"},
		{"'%d-%s' % [5, 'a']", "5-a"},
		{"'%.2f' % 3.14159", "3.14"},
		{"str(42)", "42"},
		{"str(2.5)", "2.5"},
		{"int('17')", "17"},
		{"float('2.5')", "2.5"},
	}
	for _, c := range cases {
		expectStr(t, in, c[0], c[1])
	}
}

func TestLists(t *testing.T) {
	in := New()
	exec(t, in, `
xs = [3, 1, 2]
xs.append(4)
ys = xs + [5]
`)
	expectStr(t, in, "len(xs)", "4")
	expectStr(t, in, "xs[3]", "4")
	expectStr(t, in, "xs[-1]", "4")
	expectStr(t, in, "ys", "[3, 1, 2, 4, 5]")
	expectStr(t, in, "sorted(xs)", "[1, 2, 3, 4]")
	expectStr(t, in, "sum(xs)", "10")
	expectStr(t, in, "min(xs)", "1")
	expectStr(t, in, "max(xs)", "4")
	expectStr(t, in, "xs[1:3]", "[1, 2]")
	expectStr(t, in, "[0] * 3", "[0, 0, 0]")
	expectStr(t, in, "range(3)", "[0, 1, 2]")
	expectStr(t, in, "range(1, 4)", "[1, 2, 3]")
	expectStr(t, in, "range(10, 0, -3)", "[10, 7, 4, 1]")
	expectStr(t, in, "list('ab')", "['a', 'b']")
	exec(t, in, "xs[0] = 99")
	expectStr(t, in, "xs[0]", "99")
	exec(t, in, "p = xs.pop()")
	expectStr(t, in, "p", "4")
	expectStr(t, in, "len(xs)", "3")
	expectStr(t, in, "[1,2,3].index(2)", "1")
	expectStr(t, in, "enumerate(['a','b'])", "[[0, 'a'], [1, 'b']]")
	expectStr(t, in, "zip([1,2],[3,4])", "[[1, 3], [2, 4]]")
	expectStr(t, in, "map(lambda x: x * 2, [1,2,3])", "[2, 4, 6]")
	expectStr(t, in, "filter(lambda x: x > 1, [0,1,2,3])", "[2, 3]")
}

func TestDicts(t *testing.T) {
	in := New()
	exec(t, in, `
d = {'a': 1, 'b': 2}
d['c'] = 3
d['a'] = 10
`)
	expectStr(t, in, "d['a']", "10")
	expectStr(t, in, "len(d)", "3")
	expectStr(t, in, "d.keys()", "['a', 'b', 'c']")
	expectStr(t, in, "d.values()", "[10, 2, 3]")
	expectStr(t, in, "d.get('zz', 0)", "0")
	expectStr(t, in, "d.get('b')", "2")
	exec(t, in, "del d['b']")
	expectStr(t, in, "len(d)", "2")
	expectStr(t, in, "'b' in d", "False")
	if _, err := in.EvalExpr("d['nosuch']"); err == nil || !strings.Contains(err.Error(), "KeyError") {
		t.Fatalf("err = %v", err)
	}
}

func TestControlFlow(t *testing.T) {
	in := New()
	exec(t, in, `
total = 0
for i in range(10):
    if i % 2 == 0:
        total += i
    else:
        pass
`)
	expectStr(t, in, "total", "20")
	exec(t, in, `
n = 0
while n < 100:
    n += 7
    if n > 50:
        break
`)
	expectStr(t, in, "n", "56")
	exec(t, in, `
skipped = 0
for i in range(10):
    if i < 5:
        continue
    skipped += 1
`)
	expectStr(t, in, "skipped", "5")
	exec(t, in, `
if 1 > 2:
    branch = 'a'
elif 2 > 1:
    branch = 'b'
else:
    branch = 'c'
`)
	expectStr(t, in, "branch", "b")
	// Multi-variable for (unpacking).
	exec(t, in, `
pairs = [[1, 'a'], [2, 'b']]
out = ''
for n, s in pairs:
    out = out + s * n
`)
	expectStr(t, in, "out", "abb")
}

func TestFunctions(t *testing.T) {
	in := New()
	exec(t, in, `
def add(a, b):
    return a + b

def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
`)
	expectStr(t, in, "add(2, 3)", "5")
	expectStr(t, in, "fib(10)", "55")
	// Closures.
	exec(t, in, `
def make_adder(n):
    def adder(x):
        return x + n
    return adder

add5 = make_adder(5)
`)
	expectStr(t, in, "add5(3)", "8")
	// Lambda.
	expectStr(t, in, "(lambda x, y: x * y)(6, 7)", "42")
	// Globals.
	exec(t, in, `
counter = 0
def bump():
    global counter
    counter += 1

bump()
bump()
`)
	expectStr(t, in, "counter", "2")
	// Arity error.
	if err := in.Exec("add(1)"); err == nil {
		t.Fatal("expected arity error")
	}
	// Recursion limit.
	exec(t, in, "def inf(): return inf()")
	if _, err := in.EvalExpr("inf()"); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("err = %v", err)
	}
}

func TestMathModule(t *testing.T) {
	in := New()
	exec(t, in, "import math")
	expectStr(t, in, "math.sqrt(16)", "4.0")
	expectStr(t, in, "math.floor(3.7)", "3.0")
	expectStr(t, in, "math.pow(2, 8)", "256.0")
	v := evalExpr(t, in, "math.pi")
	if f, ok := v.(float64); !ok || f < 3.14 || f > 3.15 {
		t.Fatalf("math.pi = %v", v)
	}
	if err := in.Exec("import nosuchmodule"); err == nil {
		t.Fatal("expected import error")
	}
}

func TestStatisticsModule(t *testing.T) {
	in := New()
	exec(t, in, "import statistics")
	expectStr(t, in, "statistics.mean([1, 2, 3, 4])", "2.5")
	expectStr(t, in, "statistics.median([3, 1, 2])", "2.0")
	v := evalExpr(t, in, "statistics.stdev([2, 4, 4, 4, 5, 5, 7, 9])")
	f, ok := v.(float64)
	if !ok || f < 2.13 || f > 2.14 {
		t.Fatalf("stdev = %v", v)
	}
}

func TestPrintOutput(t *testing.T) {
	in := New()
	var buf strings.Builder
	in.Out = &buf
	exec(t, in, `print('hello', 42, 2.5)`)
	if buf.String() != "hello 42 2.5\n" {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestPersistentState(t *testing.T) {
	// The "retain" policy of §III-C: state persists across Eval calls.
	in := New()
	exec(t, in, "x = 10")
	exec(t, in, "x = x + 5")
	expectStr(t, in, "x", "15")
	// Reset (the "reinitialize" policy) clears state.
	in.Reset()
	if _, err := in.EvalExpr("x"); err == nil {
		t.Fatal("x should be undefined after Reset")
	}
}

func TestEvalFragment(t *testing.T) {
	in := New()
	out, err := in.EvalFragment("y = 6 * 7", "y")
	if err != nil || out != "42" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	// Code-only fragment.
	if _, err := in.EvalFragment("z = 1", ""); err != nil {
		t.Fatal(err)
	}
	// Expression-only fragment.
	out, err = in.EvalFragment("", "z + 1")
	if err != nil || out != "2" {
		t.Fatalf("out=%q err=%v", out, err)
	}
}

func TestErrors(t *testing.T) {
	in := New()
	cases := []struct{ code, frag string }{
		{"1 / 0", "division by zero"},
		{"undefined_name", "not defined"},
		{"[1,2][10]", "out of range"},
		{"'a' + 1", "unsupported operand"},
		{"len(5)", "has no len"},
		{"x = ", "trailing"},
		{"def f(:", "unexpected token"},
		{"5(1)", "not callable"},
		{"{[1]: 2}", "unhashable"},
	}
	for _, c := range cases {
		_, err := in.EvalExpr(c.code)
		if err == nil {
			err = in.Exec(c.code)
		}
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("code %q: err = %v, want fragment %q", c.code, err, c.frag)
		}
	}
}

func TestIndentationErrors(t *testing.T) {
	in := New()
	err := in.Exec("if True:\n    x = 1\n  y = 2")
	if err == nil || !strings.Contains(err.Error(), "indentation") {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedDataStructures(t *testing.T) {
	in := New()
	exec(t, in, `
grid = {}
for i in range(3):
    row = []
    for j in range(3):
        row.append(i * 3 + j)
    grid[i] = row
`)
	expectStr(t, in, "grid[1][2]", "5")
	expectStr(t, in, "sum(grid[2])", "21")
}

func TestScientificWorkloadShape(t *testing.T) {
	// The kind of fragment the paper's applications run: compute then
	// aggregate.
	in := New()
	exec(t, in, `
import math
def energy(x):
    return 0.5 * x * x + math.sin(x)

samples = []
for i in range(100):
    samples.append(energy(i * 0.1))

result = sum(samples) / len(samples)
`)
	v := evalExpr(t, in, "result")
	f, ok := v.(float64)
	if !ok || f < 16.0 || f > 17.0 {
		t.Fatalf("result = %v", v)
	}
}

func TestIntArithmeticProperty(t *testing.T) {
	in := New()
	f := func(a, b int32) bool {
		exec(t, in, "pa = "+Str(int64(a)))
		exec(t, in, "pb = "+Str(int64(b)))
		v := evalExpr(t, in, "pa + pb")
		n, ok := v.(int64)
		return ok && n == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStrReprDistinct(t *testing.T) {
	if Str("x") != "x" {
		t.Fatal("Str of string")
	}
	if Repr("x") != "'x'" {
		t.Fatal("Repr of string")
	}
	if Str(nil) != "None" {
		t.Fatal("Str of None")
	}
	if Str(true) != "True" || Str(false) != "False" {
		t.Fatal("Str of bool")
	}
	if Str(2.0) != "2.0" {
		t.Fatalf("Str(2.0) = %q", Str(2.0))
	}
	d := NewDict()
	d.Set("k", int64(1))
	if Repr(d) != "{'k': 1}" {
		t.Fatalf("Repr dict = %q", Repr(d))
	}
}

func TestInitCostRunsOnReset(t *testing.T) {
	calls := 0
	in := New()
	in.InitCost = func() { calls++ }
	in.Reset()
	if calls != 1 {
		t.Fatalf("InitCost calls = %d", calls)
	}
	in.Exec("x = 1")
	in.EvalExpr("x")
	if calls != 1 {
		t.Fatalf("InitCost ran on evaluation: %d calls", calls)
	}
}

// TestKeepsNothing: ParseExpr finds an expression keeps nothing when it
// has no attribute, lambda or call of anything but a storeless builtin,
// and no global displaces a builtin it calls.
func TestKeepsNothing(t *testing.T) {
	cases := []struct {
		setup, expr string
		want        bool
	}{
		{"", "argv1", true},
		{"", "sum(argv1) + len(argv1) * 2", true},
		{"", "sorted(list(argv1))[0] - min(argv1)", true},
		{"", "{'a': argv1, 'b': [argv1[1:2]]}['a']", true},
		{"sum = 3", "len(argv1)", true},
		{"", "lst.append(argv1)", false},
		{"", "math.sqrt(argv1[0])", false},
		{"", "(lambda x: x)(argv1)", false},
		{"", "map(abs, argv1)", false},
		{"", "f(argv1)", false},
		{"def sum(x):\n    return 0", "sum(argv1)", false},
		{"def sum(x):\n    return 0", "len(argv1) + abs(sum(argv1))", false},
	}
	for _, tc := range cases {
		in := New()
		if err := in.Exec(tc.setup); err != nil {
			t.Fatal(err)
		}
		_, got, err := in.ParseExpr(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("setup %q, expr %q: keeps nothing = %v, want %v", tc.setup, tc.expr, got, tc.want)
		}
	}
}
