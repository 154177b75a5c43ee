// Package conformance is the cross-engine conformance harness for the
// typed interlanguage contract (Engine v2): one table of value-kind ×
// dims × policy × argv-unbinding cases, run against every engine in
// lang.Registered(). It replaces the per-engine copies of these tables
// that used to live in internal/lang/lang_test.go and
// internal/core/typed_roundtrip_test.go — a new language registered
// through lang.Register is covered by construction, because the matrix
// iterates the registry and fails when a registered engine has no
// dialect entry here.
//
// The only per-language knowledge the harness needs is a Dialect: how to
// spell a handful of probe fragments (identity over argv1, bind/read a
// global, read argv2) in that language, plus the Swift statement the
// end-to-end round-trip tests route through. Everything else — the
// vectors, the assertions, the policy sequences — is engine-generic.
package conformance

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/blob"
	"repro/internal/lang"
	"repro/internal/tcl"
)

// Frag is one probe fragment: Code runs, Expr's value returns. For
// single-slot languages (Sig.Fixed == 1) the non-empty half is the
// fragment.
type Frag struct{ Code, Expr string }

// Call maps the fragment onto a registration's calling convention.
func (f Frag) Call(reg lang.Registration, args []lang.Value, want lang.Kind) lang.Call {
	if reg.Sig.Fixed >= 2 {
		return lang.Call{Code: f.Code, Expr: f.Expr, Args: args, Want: want}
	}
	code := f.Code
	if code == "" {
		code = f.Expr
	}
	return lang.Call{Code: code, Args: args, Want: want}
}

// evalWords renders the fragment as a <name>::eval dispatch command for
// the Install-surface policy cases.
func (f Frag) evalWords(reg lang.Registration) string {
	if reg.Sig.Fixed >= 2 {
		return tcl.FormatList([]string{reg.Name + "::eval", f.Code, f.Expr})
	}
	code := f.Code
	if code == "" {
		code = f.Expr
	}
	return tcl.FormatList([]string{reg.Name + "::eval", code})
}

// Dialect spells the harness's probe fragments in one language.
type Dialect struct {
	// Identity returns argv1 unchanged (the blob round-trip probe).
	Identity Frag
	// StateSet binds the global g to 41; StateRead reads it back
	// (rendering "41"). Together they probe retain/reinit semantics.
	StateSet, StateRead Frag
	// ArgvRead1 and ArgvRead2 read the pre-bound arguments back — the
	// stale-binding and failed-binding probes.
	ArgvRead1, ArgvRead2 Frag
	// Print writes to the engine's output (Host.Out) — the probe that
	// makes an engine fail from inside its own evaluation.
	Print Frag
	// SumArgs computes sum(argv1) + argv2 (argv1 a float vector, argv2
	// an int) — the typed-binding probe. Zero when the language cannot
	// compute over vectors (the strings-only Tcl engine).
	SumArgs Frag
	// Swift is the statement binding `blob through` from the closed blob
	// `v`, routing one identity round trip through the engine end to end.
	Swift string
	// Exempt marks engines whose surface cannot express the matrix at
	// all (the shell: no variable bindings or expressions, only argv).
	Exempt bool
}

// Dialects is the per-language registry the matrix draws from. Adding a
// language to lang.Register without adding its dialect here fails every
// conformance test — coverage is by construction, not by convention.
var Dialects = map[string]Dialect{
	"python": {
		Identity:  Frag{Expr: "argv1"},
		StateSet:  Frag{Code: "g = 41"},
		StateRead: Frag{Expr: "g"},
		ArgvRead1: Frag{Expr: "argv1"},
		ArgvRead2: Frag{Expr: "argv2"},
		Print:     Frag{Code: "print(1)"},
		SumArgs:   Frag{Code: "s = sum(argv1) + argv2", Expr: "s"},
		Swift:     `blob through = python("", "argv1", v);`,
	},
	"r": {
		Identity:  Frag{Code: "x <- argv1", Expr: "x"},
		StateSet:  Frag{Code: "g <- 41"},
		StateRead: Frag{Expr: "g"},
		ArgvRead1: Frag{Expr: "argv1"},
		ArgvRead2: Frag{Expr: "argv2"},
		Print:     Frag{Code: "cat(1)"},
		SumArgs:   Frag{Code: "s <- sum(argv1) + argv2", Expr: "s"},
		Swift:     `blob through = r("x <- argv1", "x", v);`,
	},
	"tcl": {
		Identity:  Frag{Code: "set argv1"},
		StateSet:  Frag{Code: "set g 41"},
		StateRead: Frag{Code: "set g"},
		ArgvRead1: Frag{Code: "set argv1"},
		ArgvRead2: Frag{Code: "set argv2"},
		Print:     Frag{Code: "puts 1"},
		// Strings-only: no vector arithmetic — SumArgs stays zero.
		Swift: `blob through = tcl("set argv1", v);`,
	},
	"julia": {
		Identity:  Frag{Expr: "argv1"},
		StateSet:  Frag{Code: "g = 41"},
		StateRead: Frag{Expr: "g"},
		ArgvRead1: Frag{Expr: "argv1"},
		ArgvRead2: Frag{Expr: "argv2"},
		Print:     Frag{Code: "println(1)"},
		SumArgs:   Frag{Code: "s = sum(argv1) + argv2", Expr: "s"},
		Swift:     `blob through = julia("", "argv1", v);`,
	},
	"sh": {Exempt: true},
}

// VectorCase is one row of the value-kind × dims table.
type VectorCase struct {
	Name string
	B    blob.Blob
}

// Vectors returns the value-kind × dims table every engine must
// round-trip bit-exact. Element patterns are chosen to be destroyed by
// any decimal rendering on the route: full-mantissa float64s, float32
// values that widen inexactly if re-parsed from short text, negative
// int32s, int64s at the edge of float64's exact range, and raw bytes.
// Each call returns fresh payload copies, so mutation in one case
// cannot leak into another.
func Vectors() []VectorCase {
	f64 := blob.FromFloat64s([]float64{0.1 + 0.2, 1e-300, -3.14159265358979, 6, 0, 2.5e17})
	f64.Dims = []int{2, 3}
	f32 := blob.FromFloat32s([]float32{0.1, -2.7182817, 3.4e38, 0.125, 42, -0})
	f32.Dims = []int{3, 2}
	i32 := blob.FromInt32s([]int32{-2147483648, 2147483647, 0, -7, 12345, 1})
	i32.Dims = []int{6}
	// ±2^53: the widest int64 magnitudes every engine must carry exactly
	// (beyond them, double-based engines are required to refuse, which
	// TestREngineRejectsInexactInt64 pins separately).
	i64 := blob.FromInt64s([]int64{1 << 53, -(1 << 53), 7, 0, -1, 42})
	i64.Dims = []int{3, 2}
	raw := blob.New([]byte{0, 1, 2, 254, 255, 128})
	return []VectorCase{
		{"float64-dims", f64},
		{"float32-dims", f32},
		{"int32-dims", i32},
		{"int64-dims", i64},
		{"raw-bytes", raw},
	}
}

// EachEngine runs f once per registered, non-exempt engine. A registered
// engine with no dialect fails the test: the conformance matrix must
// grow with the registry.
func EachEngine(t *testing.T, f func(t *testing.T, reg lang.Registration, d Dialect)) {
	t.Helper()
	for _, reg := range lang.Registered() {
		d, ok := Dialects[reg.Name]
		if !ok {
			t.Errorf("engine %q is registered but has no conformance dialect; add one to internal/lang/conformance", reg.Name)
			continue
		}
		if d.Exempt {
			continue
		}
		reg, d := reg, d
		t.Run(reg.Name, func(t *testing.T) { f(t, reg, d) })
	}
}

// newEngine creates a quiet engine instance for matrix runs.
func newEngine(reg lang.Registration) lang.Engine {
	return reg.New(lang.Host{Out: io.Discard})
}

// AssertBlobEqual fails unless got carries exactly the payload bytes,
// element kind, and dims of want — the bit-exactness contract.
func AssertBlobEqual(t *testing.T, label string, got, want blob.Blob) {
	t.Helper()
	if string(got.Data) != string(want.Data) {
		t.Fatalf("%s: payload not bit-exact:\n got %x\nwant %x", label, got.Data, want.Data)
	}
	if got.Elem != want.Elem {
		t.Fatalf("%s: element kind %v != %v", label, got.Elem, want.Elem)
	}
	if fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) {
		t.Fatalf("%s: dims %v != %v", label, got.Dims, want.Dims)
	}
}

// RunRoundTripMatrix drives every vector case through every engine's
// identity fragment at the Engine level: the blob binds as argv1, comes
// back as the result, and must be bit-exact — payload bytes, element
// kind, and Fortran dims all intact.
func RunRoundTripMatrix(t *testing.T) {
	EachEngine(t, func(t *testing.T, reg lang.Registration, d Dialect) {
		for _, vc := range Vectors() {
			vc := vc
			t.Run(vc.Name, func(t *testing.T) {
				eng := newEngine(reg)
				res, err := eng.Eval(d.Identity.Call(reg, []lang.Value{lang.BlobOf(vc.B)}, lang.KindBlob))
				if err != nil {
					t.Fatal(err)
				}
				if res.Kind() != lang.KindBlob {
					t.Fatalf("result kind = %v, want blob", res.Kind())
				}
				AssertBlobEqual(t, reg.Name+" identity", res.AsBlob(), vc.B)
			})
		}
	})
}

// RunArgvMatrix checks the argv pre-binding contract on every engine:
// typed arguments bind as native values (a float vector sums without any
// rendering of element data), stale bindings never leak between tasks,
// and a failed binding leaves no partial argv set behind.
func RunArgvMatrix(t *testing.T) {
	EachEngine(t, func(t *testing.T, reg lang.Registration, d Dialect) {
		t.Run("typed-bind", func(t *testing.T) {
			if d.SumArgs == (Frag{}) {
				t.Skipf("%s cannot compute over vectors", reg.Name)
			}
			eng := newEngine(reg)
			args := []lang.Value{lang.Floats([]float64{1.5, 2.25, 3.25}), lang.Int(3)}
			res, err := eng.Eval(d.SumArgs.Call(reg, args, lang.KindFloat))
			if err != nil {
				t.Fatal(err)
			}
			f, err := res.AsFloat()
			if err != nil || f != 10.0 {
				t.Fatalf("sum = %v (%v), want 10", f, err)
			}
		})
		t.Run("stale-argv-unbinds", func(t *testing.T) {
			// Under PolicyRetain a task referencing argvN beyond its own
			// arg count must fail, not silently read a previous task's
			// argument.
			eng := newEngine(reg)
			res, err := eng.Eval(d.ArgvRead2.Call(reg, []lang.Value{lang.Int(1), lang.Int(2)}, lang.KindString))
			if err != nil {
				t.Fatal(err)
			}
			if res.Render() != "2" {
				t.Fatalf("argv2 = %q, want 2", res.Render())
			}
			if out, err := eng.Eval(d.ArgvRead2.Call(reg, []lang.Value{lang.Int(7)}, lang.KindString)); err == nil {
				t.Fatalf("stale argv2 leaked into the next task: %q", out.Render())
			}
		})
		t.Run("failed-binding-leaves-nothing", func(t *testing.T) {
			// A conversion failure mid-argument-list must not leave a
			// partial argv set bound. Engines that bind raw bytes (no
			// conversion step) cannot fail here and are skipped.
			ragged := lang.BlobOf(blob.Blob{Data: []byte{1, 2, 3}, Elem: blob.ElemF64})
			eng := newEngine(reg)
			good := lang.Floats([]float64{42})
			if _, err := eng.Eval(d.ArgvRead1.Call(reg, []lang.Value{good, ragged}, lang.KindString)); err == nil {
				t.Skipf("%s binds blobs without conversion; nothing to fail", reg.Name)
			}
			if out, err := eng.Eval(d.ArgvRead1.Call(reg, nil, lang.KindString)); err == nil {
				t.Fatalf("argv1 from the failed call leaked: %q", out.Render())
			}
		})
	})
}

// RunPolicyMatrix checks the paper's §III-C retain/reinit semantics on
// every engine, both directly (Engine.Reset) and through lang.Install's
// per-fragment policy application on the Tcl dispatch surface.
func RunPolicyMatrix(t *testing.T) {
	EachEngine(t, func(t *testing.T, reg lang.Registration, d Dialect) {
		t.Run("engine-reset", func(t *testing.T) {
			eng := newEngine(reg)
			if eng.Name() != reg.Name {
				t.Fatalf("Name() = %q, want %q", eng.Name(), reg.Name)
			}
			if _, err := eng.Eval(d.StateSet.Call(reg, nil, lang.KindString)); err != nil {
				t.Fatal(err)
			}
			got, err := eng.Eval(d.StateRead.Call(reg, nil, lang.KindString))
			if err != nil {
				t.Fatalf("retained state unreadable: %v", err)
			}
			if got.Render() != "41" {
				t.Fatalf("retained read = %q, want 41", got.Render())
			}
			eng.Reset()
			if _, err := eng.Eval(d.StateRead.Call(reg, nil, lang.KindString)); err == nil {
				t.Fatalf("%s: state survived Reset", reg.Name)
			}
		})
		t.Run("install-policy", func(t *testing.T) {
			// Through the Tcl dispatch command (the string surface leaf
			// tasks fall back to): reinit clears state after every
			// fragment, retain keeps it — without any per-language code.
			counters := lang.NewCounters()
			setCall := d.StateSet.evalWords(reg)
			readCall := d.StateRead.evalWords(reg)

			retain := tcl.New()
			lang.Install(retain, lang.Host{Out: io.Discard}, lang.PolicyRetain, counters, reg)
			if _, err := retain.Eval(setCall); err != nil {
				t.Fatal(err)
			}
			got, err := retain.Eval(readCall)
			if err != nil || got != "41" {
				t.Fatalf("retain read = %q, %v", got, err)
			}

			reinit := tcl.New()
			lang.Install(reinit, lang.Host{Out: io.Discard}, lang.PolicyReinit, counters, reg)
			if _, err := reinit.Eval(setCall); err != nil {
				t.Fatal(err)
			}
			if out, err := reinit.Eval(readCall); err == nil {
				t.Fatalf("reinit: state survived the fragment boundary (got %q)", out)
			}
			if n := counters.Snapshot()[reg.Name]; n != 4 {
				t.Fatalf("counter = %d, want 4", n)
			}
		})
	})
}
