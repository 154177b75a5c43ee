package lang

import (
	"io"
	"testing"

	"repro/internal/blob"
	"repro/internal/jlite"
	"repro/internal/pylite"
	"repro/internal/rlite"
)

// TestScriptEnginesLendOnlyWhatTheyCanProve pins the per-fragment rule:
// a python or julia fragment with blank code whose expression provably
// keeps nothing views its blob argument in place (an identity result
// aliases the argument's bytes), and any other binds a copy; a lent
// call's blob argv names are unbound when Eval returns, and a copy's
// stay bound. R decodes every blob, so its identity result is the
// argument's own bytes unless the vector was written. (The rule's
// expression cases: pylite's and jlite's TestKeepsNothing.)
func TestScriptEnginesLendOnlyWhatTheyCanProve(t *testing.T) {
	cases := []struct {
		lang, setup, code, expr string
		aliased, bound          bool
	}{
		{"python", "", "", "argv1", true, false},
		{"python", "", "", "[sum(argv1), len(argv1), argv1][2]", true, false},
		{"python", "", "y = 1", "argv1", false, true},
		{"python", "", "", "(lambda x: x)(argv1)", false, true},
		{"python", "", "", "list(map(abs, argv1)) and argv1", false, true},
		{"python", "lst = []", "", "[lst.append(1), argv1][1]", false, true},
		{"python", "def sum(x):\n    return 0", "", "[sum(argv1), argv1][1]", false, true},
		{"python", "def f(x):\n    return x", "", "f(argv1)", false, true},
		{"julia", "", "", "argv1", true, false},
		{"julia", "", "y = 1", "argv1", false, true},
		{"r", "", "", "argv1", true, false},
		{"r", "", "x <- argv1", "x", true, true},
		{"r", "", "x <- argv1\nx[1] <- 5", "x", false, true},
	}
	for _, tc := range cases {
		reg, _ := Lookup(tc.lang)
		eng := reg.New(Host{Out: io.Discard})
		if tc.setup != "" {
			if _, err := eng.Eval(Call{Code: tc.setup}); err != nil {
				t.Fatalf("%s setup %q: %v", tc.lang, tc.setup, err)
			}
		}
		arg := blob.FromFloat64s([]float64{1, 2, 3})
		res, err := eng.Eval(Call{Code: tc.code, Expr: tc.expr, Args: []Value{BlobOf(arg)}, Want: KindBlob})
		if err != nil {
			t.Fatalf("%s %q %q: %v", tc.lang, tc.code, tc.expr, err)
		}
		if aliased := &res.AsBlob().Data[0] == &arg.Data[0]; aliased != tc.aliased {
			t.Errorf("%s code %q expr %q: result aliases the argument = %v, want %v", tc.lang, tc.code, tc.expr, aliased, tc.aliased)
		}
		var bound bool
		switch e := eng.(type) {
		case *scriptEngine[pylite.Value, *pylite.Expr]:
			bound = argv1Bound(e)
		case *scriptEngine[jlite.Value, *jlite.Expr]:
			bound = argv1Bound(e)
		case *scriptEngine[rlite.Value, string]:
			bound = argv1Bound(e)
		}
		if bound != tc.bound {
			t.Errorf("%s code %q expr %q: argv1 bound after the call = %v, want %v", tc.lang, tc.code, tc.expr, bound, tc.bound)
		}
	}
}

// argv1Bound reports whether e's interpreter has argv1 bound, read
// directly, with no Eval to rebind or delete it first.
func argv1Bound[N, X any](e *scriptEngine[N, X]) bool {
	x, _, err := e.in.ParseExpr("argv1")
	if err == nil {
		_, err = e.in.EvalParsed(x)
	}
	return err == nil
}
