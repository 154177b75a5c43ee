package core

// End-to-end proof of the lang-registry refactor: adding an embedded
// language is one lang.Register call. The toy engine below is registered
// only in this test, yet a Swift program can call it like python()/r()
// — the type checker synthesizes the builtin, the compiler emits
// turbine::leaf rev, and RunCompiled installs the engine on every rank —
// with zero edits to check.go, prelude.go, or core.go.

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

// revEngine is a toy language on the typed Engine v2 contract: code
// names a variable to bind, expr is text to reverse and remember. State
// persists across fragments so the retain/reinit policy is observable.
type revEngine struct {
	vars map[string]string
}

func newRevEngine(h lang.Host) lang.Engine {
	return &revEngine{vars: map[string]string{}}
}

func (e *revEngine) Name() string { return "rev" }

func (e *revEngine) Eval(c lang.Call) (lang.Value, error) {
	b := []byte(c.Expr)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	out := string(b)
	if c.Code != "" {
		e.vars[c.Code] = out
	}
	if prev, ok := e.vars[c.Expr]; ok {
		// A bare variable name in expr recalls the stored value.
		return lang.Str(prev), nil
	}
	return lang.Str(out), nil
}

func (e *revEngine) Reset() { e.vars = map[string]string{} }

func TestToyEngineEndToEnd(t *testing.T) {
	lang.Register(lang.Registration{Name: "rev", Sig: lang.Signature{Fixed: 2}, New: newRevEngine})
	defer lang.Unregister("rev")

	res, err := Run(`
		string a = rev("x", "stressed");
		string b = rev("", "x");
		printf("rev=%s recall=%s", a, b);
	`, Config{Engines: 1, Workers: 1, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "rev=desserts recall=desserts") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Evals["rev"] != 2 {
		t.Fatalf("rev evals = %d, want 2", res.Evals["rev"])
	}
}

func TestToyEngineUnknownAfterUnregister(t *testing.T) {
	// Without the registration the same program must fail type checking:
	// the builtin only exists while the language is registered.
	_, err := Run(`string a = rev("x", "y");`, Config{})
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("err = %v, want undefined function", err)
	}
}

func TestToyEnginePolicyReinit(t *testing.T) {
	lang.Register(lang.Registration{Name: "rev", Sig: lang.Signature{Fixed: 2}, New: newRevEngine})
	defer lang.Unregister("rev")

	// Under Retain the second task recalls the "x" binding stored by the
	// first; under Reinit the store is cleared between tasks, so the
	// recall falls through to plain reversal. Workers=1 keeps a single
	// engine instance, and b's data dependency on a orders the tasks.
	src := `
		string a = rev("x", "stressed");
		string b = rev(a, "x");
		printf("got=%s", b);
	`
	res, err := Run(src, Config{Workers: 1, Policy: PolicyRetain})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "got=desserts") {
		t.Fatalf("retain stdout = %q", res.Stdout)
	}
	res, err = Run(src, Config{Workers: 1, Policy: PolicyReinit})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "got=x") {
		t.Fatalf("reinit stdout = %q", res.Stdout)
	}
}
