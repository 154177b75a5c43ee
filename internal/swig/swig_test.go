package swig

import (
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/nativelib"
	"repro/internal/tcl"
)

func TestParseHeader(t *testing.T) {
	decls, err := ParseHeader(nativelib.SimHeader)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*FuncDecl{}
	for _, d := range decls {
		byName[d.Name] = d
	}
	e := byName["sim_energy"]
	if e == nil || e.Ret != CDouble || len(e.Params) != 2 ||
		e.Params[0].Type != CDoublePtr || e.Params[1].Type != CInt {
		t.Fatalf("sim_energy decl wrong: %+v", e)
	}
	v := byName["sim_version"]
	if v == nil || v.Ret != CString || len(v.Params) != 0 {
		t.Fatalf("sim_version decl wrong: %+v", v)
	}
	s := byName["sim_scale"]
	if s == nil || s.Ret != CVoid {
		t.Fatalf("sim_scale decl wrong: %+v", s)
	}
	if sig := e.Signature(); sig != "double sim_energy(double* data, int n);" {
		t.Fatalf("signature = %q", sig)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	bad := []string{
		"double f(double x)",    // missing semicolon
		"struct foo* f(int x);", // unsupported type
		"double f(badtype x);",  // unsupported param
		"noreturn;",             // malformed
		"double (int x);",       // missing name
	}
	for _, h := range bad {
		if _, err := ParseHeader(h); err == nil {
			t.Errorf("ParseHeader(%q) should fail", h)
		}
	}
}

func TestBindAndCall(t *testing.T) {
	lib := nativelib.NewSimLibrary()
	in := tcl.New()
	decls, err := Bind(in, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 7 {
		t.Fatalf("bound %d decls", len(decls))
	}
	// Scalar in, string out.
	out, err := in.Eval("sim_version")
	if err != nil || !strings.Contains(out, "libsim") {
		t.Fatalf("sim_version: %q %v", out, err)
	}
	// Namespaced alias.
	out2, err := in.Eval("libsim::sim_version")
	if err != nil || out2 != out {
		t.Fatalf("namespaced call: %q %v", out2, err)
	}
	// int + double in, double out.
	out, err = in.Eval("sim_waveform 0 0.01")
	if err != nil {
		t.Fatal(err)
	}
	if out != "0.0" {
		t.Fatalf("sim_waveform(0) = %q", out)
	}
	// Blob argument path: pass packed float64 bytes through Tcl.
	b := blob.FromFloat64s([]float64{0.9, 2.0, 3.5})
	in.SetVar("payload", string(b.Data))
	out, err = in.Eval("sim_count_above $payload 3 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if out != "2" {
		t.Fatalf("count_above = %q", out)
	}
	// Void-ish mutate returns updated blob.
	out, err = in.Eval("sim_scale $payload 3 2.0")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := blob.ToFloat64s(blob.New([]byte(out)))
	if err != nil {
		t.Fatal(err)
	}
	if scaled[1] != 4.0 {
		t.Fatalf("scaled = %v", scaled)
	}
	// Arity and type errors surface as Tcl errors.
	if _, err := in.Eval("sim_waveform 1"); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := in.Eval("sim_waveform notanint 0.5"); err == nil {
		t.Fatal("expected type error")
	}
}

func TestDotProduct(t *testing.T) {
	lib := nativelib.NewSimLibrary()
	in := tcl.New()
	if _, err := Bind(in, lib); err != nil {
		t.Fatal(err)
	}
	a := blob.FromFloat64s([]float64{1, 2, 3})
	b := blob.FromFloat64s([]float64{4, 5, 6})
	in.SetVar("a", string(a.Data))
	in.SetVar("b", string(b.Data))
	out, err := in.Eval("sim_dot $a $b 3")
	if err != nil {
		t.Fatal(err)
	}
	if out != "32.0" {
		t.Fatalf("dot = %q", out)
	}
}

func TestGenerateWrapper(t *testing.T) {
	lib := nativelib.NewSimLibrary()
	src, err := GenerateWrapper(lib)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package provide libsim") {
		t.Fatalf("wrapper missing package provide:\n%s", src)
	}
	if !strings.Contains(src, "double sim_energy(double* data, int n);") {
		t.Fatalf("wrapper missing signature:\n%s", src)
	}
}

func TestResolveErrors(t *testing.T) {
	lib := nativelib.NewLibrary("empty", "double missing(int x);")
	in := tcl.New()
	if _, err := Bind(in, lib); err == nil {
		t.Fatal("expected unresolved symbol error")
	}
	if _, err := lib.Resolve("nope"); err == nil {
		t.Fatal("expected resolve error")
	}
}

// TestBindParsesHeaderOnce: every rank binds the same library, and each
// Bind after the first reuses the first's declarations; the commands it
// registers are still the interpreter's own.
func TestBindParsesHeaderOnce(t *testing.T) {
	a, b := tcl.New(), tcl.New()
	da, err := Bind(a, nativelib.NewSimLibrary())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Bind(b, nativelib.NewSimLibrary())
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 || len(da) != len(db) || da[0] != db[0] {
		t.Fatal("the second Bind parsed the header again")
	}
	a.UnregisterCommand("sim_version")
	if out, err := b.Eval("sim_version"); err != nil || !strings.Contains(out, "libsim") {
		t.Fatalf("sim_version on the other interpreter: %q %v", out, err)
	}
}
