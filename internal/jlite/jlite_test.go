package jlite

import (
	"strings"
	"testing"
	"time"
)

// evalStr runs a fragment and returns the rendered expression result.
func evalStr(t *testing.T, in *Interp, code, expr string) string {
	t.Helper()
	out, err := in.EvalFragment(code, expr)
	if err != nil {
		t.Fatalf("EvalFragment(%q, %q): %v", code, expr, err)
	}
	return out
}

func TestScalarArithmetic(t *testing.T) {
	in := New()
	cases := []struct{ expr, want string }{
		{"1 + 2", "3"},
		{"2 * 3 + 4", "10"},
		{"2 + 3 * 4", "14"},
		{"(2 + 3) * 4", "20"},
		{"7 / 2", "3.5"}, // Julia true division
		{"div(7, 2)", "3"},
		{"7 % 3", "1"},
		{"-7 % 3", "-1"}, // rem keeps the dividend's sign
		{"2 ^ 10", "1024"},
		{"2 ^ -1", "0.5"},
		{"2.5 * 2", "5.0"}, // Float64 contaminates and renders with .0
		{"1.5e2", "150.0"},
		{"-3 + 1", "-2"},
		{"abs(-4)", "4"},
		{"min(3, 1, 2)", "1"},
		{"max(3, 1, 2)", "3"},
		{"Float64(3)", "3.0"},
		{"Int(3.0)", "3"},
		{"sqrt(16)", "4.0"},
		{"true && false", "false"},
		{"true || false", "true"},
		{"!(1 > 2)", "true"},
		{"1 < 2", "true"},
		{"3 == 3.0", "true"},
		{"nothing", "nothing"},
		{`"ab" * "cd"`, "abcd"}, // Julia string concatenation
		{`"ab" ^ 3`, "ababab"},
		{`string("n=", 4)`, "n=4"},
		{"typeof(1)", "Int64"},
		{"typeof(1.0)", "Float64"},
	}
	for _, tc := range cases {
		if got := evalStr(t, in, "", tc.expr); got != tc.want {
			t.Fatalf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestIntDivisionNeverTruncates(t *testing.T) {
	in := New()
	if got := evalStr(t, in, "", "1 / 4"); got != "0.25" {
		t.Fatalf("1/4 = %q", got)
	}
	if _, err := New().EvalExpr("Int(2.5)"); err == nil || !strings.Contains(err.Error(), "InexactError") {
		t.Fatalf("Int(2.5) err = %v", err)
	}
}

func TestFunctionEnd(t *testing.T) {
	in := New()
	const code = `
function sq(x)
    x * x
end
function fact(n)
    if n <= 1
        return 1
    end
    n * fact(n - 1)
end`
	if got := evalStr(t, in, code, "sq(7)"); got != "49" {
		t.Fatalf("sq(7) = %q", got)
	}
	// Implicit last-expression return plus explicit return both work.
	if got := evalStr(t, in, "", "fact(6)"); got != "720" {
		t.Fatalf("fact(6) = %q", got)
	}
	if _, err := in.EvalExpr("sq(1, 2)"); err == nil || !strings.Contains(err.Error(), "MethodError") {
		t.Fatalf("arity err = %v", err)
	}
}

func TestForEndOverRange(t *testing.T) {
	in := New()
	const code = `
s = 0
for k in 1:10
    s = s + k * k
end`
	if got := evalStr(t, in, code, "s"); got != "385" {
		t.Fatalf("s = %q", got)
	}
	// `for k = 1:n` is the other Julia spelling.
	if got := evalStr(t, in, "t = 0\nfor k = 1:4\n  t += k\nend", "t"); got != "10" {
		t.Fatalf("t = %q", got)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	in := New()
	const code = `
s = 0
i = 0
while true
    i += 1
    if i > 10
        break
    end
    if i % 2 == 1
        continue
    end
    s += i
end`
	if got := evalStr(t, in, code, "s"); got != "30" {
		t.Fatalf("s = %q", got)
	}
}

func TestIfElseifElse(t *testing.T) {
	in := New()
	const code = `
function grade(x)
    if x >= 90
        "A"
    elseif x >= 80
        "B"
    elseif x >= 70
        "C"
    else
        "F"
    end
end`
	if err := in.Exec(code); err != nil {
		t.Fatal(err)
	}
	for expr, want := range map[string]string{
		`grade(95)`: "A", `grade(85)`: "B", `grade(75)`: "C", `grade(5)`: "F",
	} {
		if got := evalStr(t, in, "", expr); got != want {
			t.Fatalf("%s = %q, want %q", expr, got, want)
		}
	}
}

func TestOneBasedIndexing(t *testing.T) {
	in := New()
	if err := in.Exec("v = [10, 20, 30]"); err != nil {
		t.Fatal(err)
	}
	if got := evalStr(t, in, "", "v[1]"); got != "10" {
		t.Fatalf("v[1] = %q", got)
	}
	if got := evalStr(t, in, "", "v[3]"); got != "30" {
		t.Fatalf("v[3] = %q", got)
	}
	if got := evalStr(t, in, "v[2] = 21", "v[2]"); got != "21" {
		t.Fatalf("v[2] = %q", got)
	}
	// Index 0 (and n+1) are out of bounds: indexing is 1-based.
	for _, expr := range []string{"v[0]", "v[4]"} {
		if _, err := in.EvalExpr(expr); err == nil || !strings.Contains(err.Error(), "BoundsError") {
			t.Fatalf("%s err = %v, want BoundsError", expr, err)
		}
	}
	// Ranges index 1-based too.
	if got := evalStr(t, in, "r = 5:9", "r[2]"); got != "6" {
		t.Fatalf("r[2] = %q", got)
	}
}

func TestBroadcastOps(t *testing.T) {
	in := New()
	cases := []struct{ code, expr, want string }{
		{"a = [1, 2, 3]", "a .* 2", "[2, 4, 6]"},
		{"", "a .+ 10", "[11, 12, 13]"},
		{"", "a ./ 2", "[0.5, 1.0, 1.5]"},
		{"", "a .^ 2", "[1, 4, 9]"},
		{"b = [1.0, 2.0, 3.0]", "a .+ b", "[2.0, 4.0, 6.0]"},
		{"", "a .* b .+ 1", "[2.0, 5.0, 10.0]"},
		// Plain vector algebra: +/- elementwise, scalar * and /.
		{"", "a + a", "[2, 4, 6]"},
		{"", "a - a", "[0, 0, 0]"},
		{"", "2 * a", "[2, 4, 6]"},
		{"", "b / 2", "[0.5, 1.0, 1.5]"},
		{"", "-a", "[-1, -2, -3]"},
		// Broadcast over a range.
		{"", "(1:4) .* 2", "[2, 4, 6, 8]"},
		{"", "sum(a .* a)", "14"},
		// Columns: a per-element result kind that varies falls back to
		// boxed elements; one that does not stays packed.
		{"", "collect(1:3) .^ -1", "[1.0, 0.5, 0.3333333333333333]"},
		{"", "collect(-1:1) .^ collect(-1:1)", "[-1.0, 1, 1]"},
		{"", "[2, 3] .^ [1, -1]", "[2, 0.3333333333333333]"},
		{"", "collect(0:1) ./ 0", "[NaN, +Inf]"},
		{"", "[9223372036854775807] .+ 1", "[-9223372036854775808]"},
		{"", "[1, 2.5] .+ 1", "[2, 3.5]"},
		{"", "[true, false] .+ 1", "[2, 1]"},
		{"", "collect(1:3) .* true", "[1, 2, 3]"},
		{"", "1 .- (1:3)", "[0, -1, -2]"},
		{"", "-ones(2)", "[-1.0, -1.0]"},
		{"", "sqrt(collect(1:4))", "[1.0, 1.4142135623730951, 1.7320508075688772, 2.0]"},
		{"", "sqrt([1, 4.0, true])", "[1.0, 2.0, 1.0]"},
		{"", "sum(ones(3) .* 0.1)", "0.30000000000000004"},
		{"", "zeros(0) .* \"a\"", "[]"},
		{"", "sum(zeros(0) .+ 1.5)", "0"},
		{"x = ones(2)\nx[1] += 1", "x", "[2.0, 1.0]"},
		// == between a column and a boxed array compares elements.
		{"", "collect(1:3) == [1.0, 2.0, 3.0]", "true"},
		{"", "ones(3) == [1, 1, 1]", "true"},
		{"", "ones(3) != [1, 1, 2]", "true"},
		{"", "collect(1:3) == [1, 2, 3]", "true"},
	}
	for _, tc := range cases {
		if got := evalStr(t, in, tc.code, tc.expr); got != tc.want {
			t.Fatalf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestBroadcastLengthMismatch(t *testing.T) {
	in := New()
	_, err := in.EvalExpr("[1, 2] .+ [1, 2, 3]")
	if err == nil || !strings.Contains(err.Error(), "DimensionMismatch") {
		t.Fatalf("err = %v, want DimensionMismatch", err)
	}
	// Plain scalar+vector needs the dot form, as in Julia.
	if _, err := in.EvalExpr("1 + [1, 2]"); err == nil || !strings.Contains(err.Error(), ".+") {
		t.Fatalf("err = %v, want hint at .+", err)
	}
}

func TestRangesAndCollect(t *testing.T) {
	in := New()
	if got := evalStr(t, in, "", "sum(1:100)"); got != "5050" {
		t.Fatalf("sum(1:100) = %q", got)
	}
	if got := evalStr(t, in, "", "length(3:7)"); got != "5" {
		t.Fatalf("length = %q", got)
	}
	if got := evalStr(t, in, "", "collect(1:4)"); got != "[1, 2, 3, 4]" {
		t.Fatalf("collect = %q", got)
	}
	if got := evalStr(t, in, "", "length(5:1)"); got != "0" {
		t.Fatalf("empty range length = %q", got)
	}
	// 1:n-1 parses as 1:(n-1), Julia's precedence.
	if got := evalStr(t, in, "n = 5", "sum(1:n-1)"); got != "10" {
		t.Fatalf("sum(1:n-1) = %q", got)
	}
	// collect builds an Int64 column; it reads, sums, renders and
	// iterates as the boxed array did.
	for _, tc := range []struct{ code, expr, want string }{
		{"", "typeof(collect(1:3))", "Vector"},
		{"", "sum(collect(1:0))", "0"},
		{"", "collect(1:3)[3]", "3"},
		{"s = 0\nfor x in collect(1:4)\ns = s + x\nend", "s", "10"},
		{"", "collect(ones(2))", "[1.0, 1.0]"},
		{"", "collect([1, 2.5])", "[1, 2.5]"},
		{"", "string(collect(1:3), ones(2))", "[1, 2, 3][1.0, 1.0]"},
	} {
		if got := evalStr(t, in, tc.code, tc.expr); got != tc.want {
			t.Fatalf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
	if _, err := in.EvalExpr("collect(1:3)[4]"); err == nil || err.Error() != "jlite: BoundsError: attempt to access 3-element vector at index [4]" {
		t.Fatalf("out of bounds: %v", err)
	}
}

func TestZerosOnesPush(t *testing.T) {
	in := New()
	if got := evalStr(t, in, "z = zeros(3)", "z"); got != "[0.0, 0.0, 0.0]" {
		t.Fatalf("zeros = %q", got)
	}
	if got := evalStr(t, in, "", "sum(ones(4))"); got != "4.0" {
		t.Fatalf("ones sum = %q", got)
	}
	if got := evalStr(t, in, "a = [1]\npush!(a, 2)\npush!(a, 3)", "a"); got != "[1, 2, 3]" {
		t.Fatalf("push! = %q", got)
	}
	// A column holds what it can; anything else unpacks it to boxed
	// elements in place, so another name for the array sees the change.
	for _, tc := range []struct{ code, expr, want string }{
		{"a = ones(3)\npush!(a, 2)", "a", "[1.0, 1.0, 1.0, 2]"},
		{"a = ones(3)\npush!(a, 2.5)", "a", "[1.0, 1.0, 1.0, 2.5]"},
		{"a = collect(1:3)\npush!(a, 4)", "a", "[1, 2, 3, 4]"},
		{"a = collect(1:3)\npush!(a, 4.5)", "a", "[1, 2, 3, 4.5]"},
		{"a = collect(1:3)\npush!(a, true)", "a", "[1, 2, 3, true]"},
		{"a = ones(3)\na[2] = 5", "a", "[1.0, 5, 1.0]"},
		{"a = ones(3)\na[2] = 5.5", "a", "[1.0, 5.5, 1.0]"},
		{"a = collect(1:3)\na[2] = 2.5", "a", "[1, 2.5, 3]"},
		{"a = collect(1:3)\na[2] = 7", "a", "[1, 7, 3]"},
		{"a = collect(1:3)\na[2] = false", "a", "[1, false, 3]"},
		{"a = ones(2)\nb = a\na[1] = 3", "b", "[3, 1.0]"},
		{"a = collect(1:3)\nb = a\npush!(a, 0.5)", "b", "[1, 2, 3, 0.5]"},
		{"a = collect(1:3)\nfor x in a\npush!(a, x)\nend", "a", "[1, 2, 3, 1, 2, 3]"},
		{"", "typeof(ones(2))", "Vector"},
		{"", "sum(zeros(0))", "0"},
		{"", "zeros(0)", "[]"},
		{"", "length(ones(5))", "5"},
		{"", "ones(3)[2]", "1.0"},
	} {
		if got := evalStr(t, in, tc.code, tc.expr); got != tc.want {
			t.Fatalf("%s; %s = %q, want %q", tc.code, tc.expr, got, tc.want)
		}
	}
	var buf strings.Builder
	in.Out = &buf
	if err := in.Exec("a = collect(1:3)\nfor x in a\na[3] = 9\nprintln(x)\nend\nprintln(ones(2), a)"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "1\n2\n9\n[1.0, 1.0][1, 2, 9]\n" {
		t.Fatalf("println = %q", buf.String())
	}
	if err := in.Exec("a = ones(2)\na[1] = \"x\""); err == nil || err.Error() != "jlite: cannot store String in a numeric vector" {
		t.Fatalf("string store: %v", err)
	}
}

func TestPrintlnOutput(t *testing.T) {
	in := New()
	var buf strings.Builder
	in.Out = &buf
	if err := in.Exec(`println("total = ", 1 + 2)`); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "total = 3\n" {
		t.Fatalf("out = %q", buf.String())
	}
}

func TestFunctionScoping(t *testing.T) {
	in := New()
	// Assignment inside a function to an outer name updates the outer
	// binding; parameters shadow.
	const code = `
g = 1
function bump(x)
    g = g + x
    g
end
bump(10)`
	if got := evalStr(t, in, code, "g"); got != "11" {
		t.Fatalf("g = %q", got)
	}
	if _, err := in.EvalExpr("x"); err == nil {
		t.Fatal("parameter leaked out of the function scope")
	}
}

func TestUndefinedVariableError(t *testing.T) {
	in := New()
	_, err := in.EvalExpr("no_such_thing")
	if err == nil || !strings.Contains(err.Error(), "UndefVarError") {
		t.Fatalf("err = %v, want UndefVarError", err)
	}
}

func TestParseErrors(t *testing.T) {
	in := New()
	for _, src := range []string{
		"function (",       // missing name
		"for x\nend",       // missing in
		"if true\n",        // unterminated block
		"1 +",              // dangling operator
		"end",              // stray end
		`"unterminated`,    // bad string
		"a = [1, 2\n; 3]]", // mismatched brackets
	} {
		if err := in.Exec(src); err == nil {
			t.Fatalf("Exec(%q) accepted bad syntax", src)
		}
	}
}

func TestConditionMustBeBool(t *testing.T) {
	// Julia rejects non-boolean conditions rather than truthiness-testing.
	in := New()
	err := in.Exec("if 1\nend")
	if err == nil || !strings.Contains(err.Error(), "non-boolean") {
		t.Fatalf("err = %v, want non-boolean TypeError", err)
	}
}

func TestNaNComparisonsFollowIEEE(t *testing.T) {
	// Julia/IEEE semantics: every ordered comparison with NaN is false
	// (including NaN == NaN); only != is true. 0/0 is the natural NaN.
	in := New()
	cases := []struct{ expr, want string }{
		{"0 / 0 == 0 / 0", "false"},
		{"0.0 / 0.0 == 0.0 / 0.0", "false"},
		{"1.0 <= 0 / 0", "false"},
		{"1.0 >= 0 / 0", "false"},
		{"0 / 0 < 1.0", "false"},
		{"0 / 0 != 1.0", "true"},
		{"0 / 0 != 0 / 0", "true"},
	}
	for _, tc := range cases {
		if got := evalStr(t, in, "", tc.expr); got != tc.want {
			t.Fatalf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestIntPowIsFastForHugeExponents(t *testing.T) {
	// Exponentiation by squaring: a huge computed exponent terminates
	// (wrapping like Julia's Int ^) instead of spinning the rank.
	in := New()
	done := make(chan string, 1)
	go func() {
		out, err := in.EvalFragment("", "3 ^ 9223372036854775807")
		if err != nil {
			out = err.Error()
		}
		done <- out
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("3 ^ (2^63-1) did not terminate")
	}
	// Squaring agrees with the multiply loop on ordinary exponents.
	if got := evalStr(t, in, "", "3 ^ 13"); got != "1594323" {
		t.Fatalf("3^13 = %q", got)
	}
	if got := evalStr(t, in, "", "(-2) ^ 3"); got != "-8" {
		t.Fatalf("(-2)^3 = %q", got)
	}
	if got := evalStr(t, in, "", "7 ^ 0"); got != "1" {
		t.Fatalf("7^0 = %q", got)
	}
}

func TestDotLexingDoesNotEatFloats(t *testing.T) {
	in := New()
	// `2. +` must not lex as the float "2."; floats need a digit after
	// the dot, so `x .+ y` and `2.5 + 1` coexist.
	if got := evalStr(t, in, "", "2.5 + 1"); got != "3.5" {
		t.Fatalf("2.5+1 = %q", got)
	}
	if got := evalStr(t, in, "v = [1, 2]", "v .+ 1"); got != "[2, 3]" {
		t.Fatalf("v .+ 1 = %q", got)
	}
}

// TestKeepsNothing: ParseExpr finds an expression keeps nothing when it
// calls only builtins that do not mutate, and no global displaces one it
// calls.
func TestKeepsNothing(t *testing.T) {
	cases := []struct {
		setup, expr string
		want        bool
	}{
		{"", "argv1", true},
		{"", "sum(argv1) + length(argv1) * 2", true},
		{"", "argv1 .* 2.0 .+ sqrt(argv1[1])", true},
		{"", "[sum(argv1), 1.0][1:2]", true},
		{"sum = 3", "length(argv1)", true},
		{"", "push!(c, 1)", false},
		{"", "f(argv1)", false},
		{"function sum(x)\n  0\nend", "sum(argv1)", false},
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
