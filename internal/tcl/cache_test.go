package tcl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memo"
)

// The compile-once caches must be invisible: cached evaluation has to
// behave exactly like parse-per-eval did. These tests pin the invariants
// the caches rely on — keys are source text, values are parse results
// only, and no evaluation state leaks into a cached entry.

func mustEval(t *testing.T, in *Interp, src string) string {
	t.Helper()
	out, err := in.Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return out
}

func TestCachedScriptSameSourceDifferentResult(t *testing.T) {
	// The same source text must observe current variable state on every
	// evaluation, not the state at parse time.
	in := New()
	mustEval(t, in, "set x 1")
	body := `set y [expr {$x * 10}]`
	if got := mustEval(t, in, body); got != "10" {
		t.Fatalf("first eval = %q, want 10", got)
	}
	mustEval(t, in, "set x 7")
	if got := mustEval(t, in, body); got != "70" {
		t.Fatalf("second eval of cached script = %q, want 70", got)
	}
	scripts, _ := in.CacheStats()
	if scripts == 0 {
		t.Fatal("script cache unexpectedly empty")
	}
}

func TestCachedExprSameSourceDifferentResult(t *testing.T) {
	in := New()
	mustEval(t, in, "set i 0; set n 3")
	cond := "$i < $n"
	results := []bool{}
	for k := 0; k < 5; k++ {
		ok, err := in.EvalExprBool(cond)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, ok)
		mustEval(t, in, "incr i")
	}
	want := []bool{true, true, true, false, false}
	for k := range want {
		if results[k] != want[k] {
			t.Fatalf("iteration %d: cond = %v, want %v (cached expr must re-read vars)", k, results[k], want[k])
		}
	}
}

func TestProcRedefinitionInvalidatesCompiledBody(t *testing.T) {
	in := New()
	mustEval(t, in, `proc f {} { return one }`)
	if got := mustEval(t, in, "f"); got != "one" {
		t.Fatalf("f = %q, want one", got)
	}
	// Redefine; the call site "f" is itself a cached script, so this also
	// checks that command resolution stays late-bound.
	mustEval(t, in, `proc f {} { return two }`)
	if got := mustEval(t, in, "f"); got != "two" {
		t.Fatalf("redefined f = %q, want two", got)
	}
	// Redefinition with a different signature.
	mustEval(t, in, `proc f {a {b 5}} { expr {$a + $b} }`)
	if got := mustEval(t, in, "f 2"); got != "7" {
		t.Fatalf("resignatured f = %q, want 7", got)
	}
}

func TestUpvarThroughCachedProcBody(t *testing.T) {
	// One compiled body, two different caller variables: the upvar link
	// must bind per call, not per parse.
	in := New()
	mustEval(t, in, `proc bump {name} {
		upvar $name v
		incr v 10
	}`)
	mustEval(t, in, "set a 1; set b 2")
	mustEval(t, in, "bump a; bump b; bump a")
	if got := mustEval(t, in, "set a"); got != "21" {
		t.Fatalf("a = %q, want 21", got)
	}
	if got := mustEval(t, in, "set b"); got != "12" {
		t.Fatalf("b = %q, want 12", got)
	}
}

func TestUplevelThroughCachedBody(t *testing.T) {
	// The uplevel'd script is cached too; it must evaluate in the
	// caller's frame each time, whoever the caller is.
	in := New()
	mustEval(t, in, `proc setter {} { uplevel {set local done-[info level]} }`)
	mustEval(t, in, `proc outer {} { setter; return $local }`)
	if got := mustEval(t, in, "outer"); got != "done-1" {
		t.Fatalf("outer = %q, want done-1", got)
	}
	// From the global frame the same cached script writes a global.
	mustEval(t, in, "setter")
	if got := mustEval(t, in, "set local"); got != "done-0" {
		t.Fatalf("global local = %q, want done-0", got)
	}
}

func TestScriptCacheBounded(t *testing.T) {
	in := New()
	in.scripts = memo.NewBudget[*Script](8, memo.UnitCost[*Script])
	for i := 0; i < 100; i++ {
		src := fmt.Sprintf("set v%d %d", i, i)
		if got := mustEval(t, in, src); got != fmt.Sprint(i) {
			t.Fatalf("eval %d = %q", i, got)
		}
	}
	scripts, _ := in.CacheStats()
	if scripts > 8 {
		t.Fatalf("script cache grew to %d entries, bound is 8", scripts)
	}
	// An evicted script re-parses and still evaluates correctly.
	if got := mustEval(t, in, "set v0 0"); got != "0" {
		t.Fatalf("re-eval of evicted script = %q", got)
	}
}

func TestExprCacheBounded(t *testing.T) {
	in := New()
	in.exprs = memo.NewBudget[exprNode](8, memo.UnitCost[exprNode])
	for i := 0; i < 100; i++ {
		out, err := in.EvalExpr(fmt.Sprintf("%d + %d", i, i))
		if err != nil {
			t.Fatal(err)
		}
		if out != fmt.Sprint(2*i) {
			t.Fatalf("expr %d = %q", i, out)
		}
	}
	_, exprs := in.CacheStats()
	if exprs > 8 {
		t.Fatalf("expr cache grew to %d entries, bound is 8", exprs)
	}
	if out, err := in.EvalExpr("0 + 0"); err != nil || out != "0" {
		t.Fatalf("re-eval of evicted expr = %q, %v", out, err)
	}
}

func TestParseErrorsNotCached(t *testing.T) {
	in := New()
	if _, err := in.Eval("set x {unclosed"); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := in.EvalExpr("1 +"); err == nil {
		t.Fatal("want expr parse error")
	}
	scripts, exprs := in.CacheStats()
	if scripts != 0 || exprs != 0 {
		t.Fatalf("error results were cached: scripts=%d exprs=%d", scripts, exprs)
	}
}

func TestLiteralWordFastPathStillSubstitutes(t *testing.T) {
	// Words with $, [, or \ must keep substituting; pure-literal words
	// must pass through byte-identical.
	in := New()
	mustEval(t, in, "set who world")
	cases := [][2]string{
		{`set a hello`, "hello"},
		{`set a "hello there"`, "hello there"},
		{`set a hello-$who`, "hello-world"},
		{`set a "len: [string length $who]"`, "len: 5"},
		{`set a ab\tcd`, "ab\tcd"},
		{`set a {no $subst [here]}`, "no $subst [here]"},
	}
	for _, c := range cases {
		if got := mustEval(t, in, c[0]); got != c[1] {
			t.Fatalf("%s = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestExpandWordLiteralAndDynamic(t *testing.T) {
	in := New()
	mustEval(t, in, "set l {x y z}")
	if got := mustEval(t, in, `llength [list {*}{a b c}]`); got != "3" {
		t.Fatalf("literal expand = %q, want 3", got)
	}
	if got := mustEval(t, in, `llength [list {*}$l]`); got != "3" {
		t.Fatalf("dynamic expand = %q, want 3", got)
	}
}

func TestSharedScriptAcrossInterpreters(t *testing.T) {
	// One compiled Script, many interpreters: per-rank state must stay
	// per-rank (this is how the stc program is loaded on every rank).
	s, err := CompileScript(`
		proc greet {} { global name; return "hi $name" }
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine", "worker"} {
		in := New()
		if _, err := in.EvalScript(s); err != nil {
			t.Fatal(err)
		}
		mustEval(t, in, "set name "+name)
		if got := mustEval(t, in, "greet"); got != "hi "+name {
			t.Fatalf("greet = %q, want %q", got, "hi "+name)
		}
	}
}

func TestCachedLoopBodySeesMutation(t *testing.T) {
	// The canonical hot path: a loop whose body and condition are cached
	// after iteration one but whose state changes every iteration.
	in := New()
	out := mustEval(t, in, `
		set s {}
		for {set i 0} {$i < 4} {incr i} {
			append s $i
		}
		set s`)
	if out != "0123" {
		t.Fatalf("loop = %q, want 0123", out)
	}
	// while with a bracketed command in the condition.
	out = mustEval(t, in, `
		set i 0
		while {[incr i] < 5} {}
		set i`)
	if out != "5" {
		t.Fatalf("while = %q, want 5", out)
	}
}

func TestCatchThroughCachedScripts(t *testing.T) {
	in := New()
	// catch evaluates its script argument repeatedly with different
	// outcomes; the cached parse must not freeze the first outcome.
	mustEval(t, in, "set n 0")
	script := `catch {expr {10 / $n}} msg`
	if got := mustEval(t, in, script); got != "1" {
		t.Fatalf("catch #1 = %q, want 1 (divide by zero)", got)
	}
	mustEval(t, in, "set n 2")
	if got := mustEval(t, in, script); got != "0" {
		t.Fatalf("catch #2 = %q, want 0", got)
	}
	if got := mustEval(t, in, "set msg"); got != "5" {
		t.Fatalf("msg = %q, want 5", got)
	}
}

func TestProcCallDoesNotReparseBody(t *testing.T) {
	in := New()
	mustEval(t, in, `proc p {} { return ok }`)
	if got := mustEval(t, in, "p"); got != "ok" {
		t.Fatal("first call failed")
	}
	def := in.procs["p"]
	if def == nil || def.compiled == nil {
		t.Fatal("proc body was not compiled on first call")
	}
	first := def.compiled
	mustEval(t, in, "p")
	if def.compiled != first {
		t.Fatal("proc body recompiled on second call")
	}
}

// The parse caches evict least-recently-used, by entry count: a script
// that keeps being evaluated (a loop body, a rule action) stays resident
// however many one-shot scripts pass through, and the one-shots go.
func TestScriptCacheEvictsLeastRecentlyUsed(t *testing.T) {
	in := New()
	in.scripts = memo.NewBudget[*Script](3, memo.UnitCost[*Script])
	hot := "set hot 1"
	mustEval(t, in, hot)
	for i := 0; i < 5; i++ {
		mustEval(t, in, fmt.Sprintf("set cold%d %d", i, i))
		mustEval(t, in, hot) // a hit: promoted past the cold scripts
	}
	if scripts, _ := in.CacheStats(); scripts != 3 {
		t.Fatalf("script cache holds %d entries, want 3", scripts)
	}
	if _, ok := in.scripts.Get(hot); !ok {
		t.Fatal("the re-evaluated script was evicted: eviction is not LRU")
	}
	for i := 0; i < 5; i++ {
		if _, ok := in.scripts.Get(fmt.Sprintf("set cold%d %d", i, i)); ok != (i >= 3) {
			t.Fatalf("cold%d resident = %v, want the two newest one-shots only", i, ok)
		}
	}
}

// The parse-time substitution plan must be invisible: a planned word
// substitutes exactly as the scan-per-eval substWord did, under changing
// variable state, and malformed words keep failing at evaluation time
// with the same errors.
func TestSubstPlanSemantics(t *testing.T) {
	in := New()
	mustEval(t, in, `set a 1; set b two; set arr(x) inner; set k x`)
	cases := []struct{ src, want string }{
		{`set r "$a"`, "1"}, // single var segment
		{`set r "pre-$a-mid-$b-post"`, "pre-1-mid-two-post"}, // mixed literal/var
		{`set r "${a}x"`, "1x"},                              // braced name
		{`set r "[string length $b]"`, "3"},                  // script segment
		{`set r "$arr($k)"`, "inner"},                        // array ref, substituted index
		{`set r "a\tb"`, "a\tb"},                             // backslash resolved at compile
		{`set r "$ a"`, "$ a"},                               // lone dollar stays literal
		{`set r "2x[string repeat $a 2]\$"`, "2x11$"},        // everything at once
	}
	for _, tc := range cases {
		// Twice: the second eval runs from the cached, planned script.
		for pass := 0; pass < 2; pass++ {
			if got := mustEval(t, in, tc.src); got != tc.want {
				t.Fatalf("pass %d: Eval(%q) = %q, want %q", pass, tc.src, got, tc.want)
			}
		}
	}
	// Plans see variable mutation like any substitution.
	mustEval(t, in, `set a 9`)
	if got := mustEval(t, in, `set r "pre-$a-mid-$b-post"`); got != "pre-9-mid-two-post" {
		t.Fatalf("planned word missed mutation: %q", got)
	}
}

func TestSubstPlanMalformedWordsErrorAtEval(t *testing.T) {
	// Malformed words (unbalanced ${, parens) compile to error segments:
	// the script still parses, and the substitution error surfaces on
	// first evaluation — not at script-compile time.
	for _, tc := range []struct{ src, frag string }{
		{`set r "${unterminated"`, "missing close-brace"},
		{`set r "$arr(unclosed"`, "missing close-paren"},
	} {
		if _, err := CompileScript(tc.src); err != nil {
			t.Fatalf("CompileScript(%q) failed at parse time: %v", tc.src, err)
		}
		in := New()
		_, err := in.Eval(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("Eval(%q): err = %v, want %q", tc.src, err, tc.frag)
		}
	}
}

func TestExprQuotedInterpolationKeepsRawText(t *testing.T) {
	// Values interpolated into quoted strings must not be numerically
	// normalized: zero padding, trailing zeros, and hex spelling survive.
	in := New()
	mustEval(t, in, "set x 007; set y 1.50; set h 0x10")
	for _, c := range [][2]string{
		{`"$x" eq "007"`, "1"},
		{`"val=$y"`, "val=1.50"},
		{`"$h"`, "0x10"},
		{`"$x$y"`, "0071.50"},
		// Bare $var operands still classify numerically, as before.
		{`$x + 1`, "8"},
		{`$x == 7`, "1"},
	} {
		out, err := in.EvalExpr(c[0])
		if err != nil {
			t.Fatalf("EvalExpr(%q): %v", c[0], err)
		}
		if out != c[1] {
			t.Fatalf("EvalExpr(%q) = %q, want %q", c[0], out, c[1])
		}
	}
}

func TestExprErrorMessagesUnchanged(t *testing.T) {
	// Error shapes the rest of the system matches on (and that the old
	// evaluate-while-parsing expr produced) must survive the AST rewrite.
	in := New()
	for _, c := range []struct{ src, want string }{
		{"1 +", "unexpected end of expression"},
		{"1 / 0", "divide by zero"},
		{"1 2", "trailing garbage"},
		{`"abc`, "missing close-quote"},
		{"nosuchfn(1)", `unknown function "nosuchfn"`},
		{"$", "bad $ reference"},
	} {
		_, err := in.EvalExpr(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("EvalExpr(%q) err = %v, want substring %q", c.src, err, c.want)
		}
	}
	// Eager (non-short-circuit) operand evaluation is preserved: the
	// right side of || is evaluated even when the left is true.
	if _, err := in.EvalExpr("1 || $undefined_var"); err == nil {
		t.Fatal("want error from eager right-operand evaluation")
	}
}
