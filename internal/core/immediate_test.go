package core

// Values the compiler or engine already holds travel to their consumer
// inside the action text as typed immediates instead of through a literal
// TD. These tests pin what that route must preserve: string bytes, float
// bits, int->float promotion, and at-least-once delivery of a task whose
// rule had no input to wait on.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/adlb"
	"repro/internal/faultinject"
	"repro/internal/lang"
)

// spyEngine records every call it receives, keyed by the integer the
// program passes as the first extra argument. A blob argument is lent
// for the call, so the recorded call holds a copy of its bytes.
type spyEngine struct {
	calls *sync.Map // int64 -> lang.Call
}

func (e *spyEngine) Name() string { return "spy" }
func (e *spyEngine) Reset()       {}

func (e *spyEngine) Eval(c lang.Call) (lang.Value, error) {
	if len(c.Args) == 0 {
		return lang.Value{}, fmt.Errorf("spy: no key argument")
	}
	k, err := c.Args[0].AsInt()
	if err != nil {
		return lang.Value{}, err
	}
	for i := range c.Args {
		c.Args[i] = c.Args[i].Owned()
	}
	e.calls.Store(k, c)
	return lang.Str(""), nil
}

// registerSpy registers the spy language for one test and returns where
// its calls land.
func registerSpy(t testing.TB) *sync.Map {
	calls := &sync.Map{}
	lang.Register(lang.Registration{
		Name: "spy", Sig: lang.Signature{Fixed: 2, Variadic: true},
		New: func(lang.Host) lang.Engine { return &spyEngine{calls: calls} },
	})
	t.Cleanup(func() { lang.Unregister("spy") })
	return calls
}

// swiftQuote renders s as a Swift string literal.
func swiftQuote(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`, "\r", `\r`)
	return `"` + r.Replace(s) + `"`
}

// hostileStrings are code and expr strings that would change how an
// action parses if any layer interpolated rather than list-quoted them.
var hostileStrings = []string{
	"", " ", "a b", "{", "}", "}{", "{a", "a}", "{{}", "{a} {b", `"`, `"a b"`, `a"b`,
	"$x", "${x}", "$", "[exit]", "[", "]", "[set x 1]", ";", "a;b", "# not a comment", "#",
	"-", "-x", "--", `\`, `a\`, `\\`, "\\\n", "a\\\nb", "line1\nline2", "\n", "\t", "a\tb",
	`\n`, `\{`, `\}`, `{\}`, "{*}", "{*}x", "i:5", "s:", "f:1.5", "s:s:", "12", "-12",
	"y = 1 + 1", "v <- c(1, 2)\nsum(v)", `print("x" + "{")`, "ünïcödé ✓", "a  b", " lead", "trail ",
	"\xff\xfe", "\x00", "a\x00b",
}

// checkImmediateString runs s through a leaf call as the code string (an
// immediate), as the expr string by way of strcat (an immediate into an
// engine-side builtin, then a TD), and through a template function's
// input, and fails unless all three arrive byte-identical.
func checkImmediateString(t testing.TB, calls *sync.Map, s string) {
	q := swiftQuote(s)
	res, err := Run(fmt.Sprintf(`
		(string o) echo(string s) "p" "1" [ "set <<o>> <<s>>" ];
		string a = spy(%s, strcat(%s, ""), 1);
		string b = spy(echo(%s), %s, 2);
	`, q, q, q, q), Config{Workers: 1})
	if err != nil {
		t.Fatalf("%q: %v", s, err)
	}
	if res.Evals["spy"] != 2 {
		t.Fatalf("%q: %d spy evals, want 2", s, res.Evals["spy"])
	}
	for k := int64(1); k <= 2; k++ {
		v, ok := calls.Load(k)
		if !ok {
			t.Fatalf("%q: call %d never reached the engine", s, k)
		}
		c := v.(lang.Call)
		if c.Code != s || c.Expr != s {
			t.Fatalf("call %d: sent %q, engine saw Code %q Expr %q", k, s, c.Code, c.Expr)
		}
	}
}

func TestImmediateStringsAreByteExact(t *testing.T) {
	calls := registerSpy(t)
	for _, s := range hostileStrings {
		checkImmediateString(t, calls, s)
	}
}

func FuzzImmediateStringsAreByteExact(f *testing.F) {
	calls := registerSpy(f)
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkImmediateString(t, calls, s)
	})
}

func TestFloatImmediatesAreBitExact(t *testing.T) {
	// A float literal reaches the engine as the float64 the Swift lexer
	// read: the immediate's text is the same shortest round-trip rendering
	// the literal TD's store command was given.
	calls := registerSpy(t)
	vals := []float64{0, 0.1, 0.2, 0.30000000000000004, 1.5, 1234567, 1e21, 1e-7, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1 << 53, 1<<53 + 2, 1.0 / 3}
	var src strings.Builder
	for i, v := range vals {
		lit := strconv.FormatFloat(v, 'f', -1, 64)
		if !strings.Contains(lit, ".") {
			lit += ".0"
		}
		fmt.Fprintf(&src, "string p%d = spy(\"\", \"\", %d, %s, -%s);\n", i, i, lit, lit)
	}
	if _, err := Run(src.String(), Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		c, ok := calls.Load(int64(i))
		if !ok {
			t.Fatalf("call %d missing", i)
		}
		args := c.(lang.Call).Args
		if args[1].Kind() != lang.KindFloat || args[2].Kind() != lang.KindFloat {
			t.Fatalf("%v arrived as %s, %s", v, args[1].Kind(), args[2].Kind())
		}
		pos, _ := args[1].AsFloat()
		neg, _ := args[2].AsFloat()
		if math.Float64bits(pos) != math.Float64bits(v) || math.Float64bits(neg) != math.Float64bits(-v) {
			t.Fatalf("%v (and its negation) arrived as %v, %v", v, pos, neg)
		}
	}
}

func TestIntToFloatPromotionOfImmediatesIsExact(t *testing.T) {
	// An int literal or loop index in a float context is float64(n), the
	// conversion a promotion copy between TDs performs — including where
	// that rounds (2^53+1) — and reads as a float ("3.0"), not as an
	// integer, inside a template.
	n := int64(1<<53 + 1)
	res, err := Run(fmt.Sprintf(`
		(string o) show(float x) "p" "1" [ "set <<o>> <<x>>" ];
		printf("lit %%s %%s", show(3), show(%d));
		foreach i in [%d:%d] { printf("idx %%s", show(i)); }
		foreach v, k in [7:7] { printf("ord %%s", show(k)); }
	`, n, n, n), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := strconv.FormatFloat(float64(n), 'g', -1, 64)
	for _, want := range []string{"lit 3.0 " + big, "idx " + big, "ord 0.0"} {
		if !strings.Contains(res.Stdout, want+"\n") {
			t.Fatalf("stdout %q lacks %q", res.Stdout, want)
		}
	}
}

func TestZeroInputLeafIsRetrySafe(t *testing.T) {
	// A leaf whose operands are all immediates has a rule with no inputs:
	// it is Put the moment it is registered, and everything it needs is
	// in the work item, so a requeued copy is as good as the first.
	const src = `
		string s = python("y = 1 + 1", "y");
		printf("got %s", s);
	`
	for _, tc := range []struct {
		name string
		site faultinject.Site
		plan faultinject.Plan
	}{
		{"worker crash", faultinject.SiteWorkerTask, faultinject.Plan{Hit: 1, Action: faultinject.ActCrash, Msg: "worker dies"}},
		{"eval fault", faultinject.SiteLangEvalPre, faultinject.Plan{Hit: 1, Action: faultinject.ActError, Msg: "eval fault"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Reset()
			faultinject.Arm(tc.site, tc.plan)
			stats := &adlb.Stats{}
			res, err := Run(src, Config{Workers: 2, Stats: stats})
			if err != nil {
				t.Fatalf("run failed instead of recovering: %v", err)
			}
			if !strings.Contains(res.Stdout, "got 2\n") {
				t.Fatalf("stdout = %q", res.Stdout)
			}
			// One task, delivered twice: each lease settled (by success,
			// failure report or reclaim), nothing poisoned, nothing open.
			a := res.ADLB
			if a.LeasesIssued != 2 || a.Requeued != 1 || a.Poisoned != 0 || a.UnfilledTDs != 0 || res.TaskRetries != 1 {
				t.Fatalf("leases issued %d, requeued %d, poisoned %d, unfilled %d, retries %d; want 2 1 0 0 1",
					a.LeasesIssued, a.Requeued, a.Poisoned, a.UnfilledTDs, res.TaskRetries)
			}
			if res.Evals["python"] != 1 {
				t.Fatalf("python evals = %d, want 1", res.Evals["python"])
			}
		})
	}
}
