package lang

import (
	"errors"
	"io"
	"testing"

	"repro/internal/statstest"
	"repro/internal/tcl"
)

// pyState sets a Python global for tenant, via the pool.
func pyState(t *testing.T, p *Pool, tenant, code string) {
	t.Helper()
	if _, err := p.Eval("python", tenant, Call{Code: code, Expr: "0", Want: KindInt}, PolicyRetain); err != nil {
		t.Fatalf("tenant %s: %s: %v", tenant, code, err)
	}
}

// pyRead evaluates a Python expression for tenant and returns its render.
func pyRead(t *testing.T, p *Pool, tenant, expr string) string {
	t.Helper()
	v, err := p.Eval("python", tenant, Call{Code: "", Expr: expr, Want: KindString}, PolicyRetain)
	if err != nil {
		t.Fatalf("tenant %s: eval %s: %v", tenant, expr, err)
	}
	return v.Render()
}

func TestPoolSameTenantKeepsState(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 4, nil)
	pyState(t, p, "acme", "x = 41")
	if got := pyRead(t, p, "acme", "x + 1"); got != "42" {
		t.Fatalf("retained state read = %q, want 42", got)
	}
	if n := p.Stats().Creates.Load(); n != 1 {
		t.Fatalf("creates = %d, want 1 (second checkout must reuse)", n)
	}
}

func TestPoolTenantsIsolatedUnderCapacity(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 4, nil)
	pyState(t, p, "acme", "x = 1")
	pyState(t, p, "globex", "x = 2")
	if got := pyRead(t, p, "acme", "x"); got != "1" {
		t.Fatalf("acme x = %q after globex wrote, want 1", got)
	}
	if got := pyRead(t, p, "globex", "x"); got != "2" {
		t.Fatalf("globex x = %q, want 2", got)
	}
	if n := p.Stats().Creates.Load(); n != 2 {
		t.Fatalf("creates = %d, want one engine per tenant", n)
	}
	if n := p.Stats().Resets.Load(); n != 0 {
		t.Fatalf("resets = %d, want 0 under capacity", n)
	}
}

func TestPoolTenantSwitchResetsReusedEngine(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 1, nil)
	pyState(t, p, "acme", "secret = 'acme-key'")
	// Capacity 1: globex's checkout must reuse acme's engine, reset —
	// acme's global must be undefined in globex's view.
	if _, err := p.Eval("python", "globex",
		Call{Code: "", Expr: "secret", Want: KindString}, PolicyRetain); err == nil {
		t.Fatal("tenant switch leaked interpreter state across the boundary")
	}
	st := p.Stats().Snapshot()
	if st.TenantSwitches != 1 || st.Resets != 1 {
		t.Fatalf("switches=%d resets=%d, want 1/1", st.TenantSwitches, st.Resets)
	}
	if st.Creates != 1 {
		t.Fatalf("creates = %d, want 1 (engine reused, not recreated)", st.Creates)
	}
	if p.Resident() != 1 {
		t.Fatalf("resident = %d, want capacity bound 1", p.Resident())
	}
}

func TestPoolCrossLanguageEvictionDropsEngine(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 1, nil)
	pyState(t, p, "acme", "x = 1")
	if _, err := p.Eval("tcl", "acme", Call{Code: "set y 5", Want: KindString}, PolicyRetain); err != nil {
		t.Fatal(err)
	}
	st := p.Stats().Snapshot()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (python engine dropped for tcl)", st.Evictions)
	}
	if st.Creates != 2 {
		t.Fatalf("creates = %d, want 2", st.Creates)
	}
	if p.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", p.Resident())
	}
}

func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 2, nil)
	pyState(t, p, "a", "x = 'a'")
	pyState(t, p, "b", "x = 'b'")
	pyState(t, p, "a", "x = x") // touch a: b becomes LRU
	pyState(t, p, "c", "x = 'c'")
	// b's engine was the victim; a must still be warm (no switch for a).
	if got := pyRead(t, p, "a", "x"); got != "a" {
		t.Fatalf("a's state lost: x = %q", got)
	}
	if n := p.Stats().TenantSwitches.Load(); n != 1 {
		t.Fatalf("tenant switches = %d, want 1 (b -> c only)", n)
	}
}

func TestPoolUnknownLanguage(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 2, nil)
	if _, err := p.Checkout("cobol", "acme"); err == nil {
		t.Fatal("checkout of unregistered language succeeded")
	}
	if _, err := p.Eval("cobol", "acme", Call{}, PolicyRetain); err == nil {
		t.Fatal("eval via unregistered language succeeded")
	}
}

// panicEngine panics on Eval containing a sentinel, for containment tests.
type panicEngine struct{ resets int64 }

func (e *panicEngine) Name() string { return "panicky" }
func (e *panicEngine) Eval(c Call) (Value, error) {
	if c.Code == "boom" {
		panic("interpreter blew up")
	}
	return Str("ok"), nil
}
func (e *panicEngine) Reset() { e.resets++ }

func TestPoolEvalContainsPanics(t *testing.T) {
	eng := &panicEngine{}
	Register(Registration{Name: "panicky", Sig: Signature{Fixed: 1},
		New: func(h Host) Engine { return eng }})
	defer Unregister("panicky")

	p := NewPool(Host{}, 2, nil)
	_, err := p.Eval("panicky", "acme", Call{Code: "boom"}, PolicyRetain)
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("panic surfaced as %v, want *TaskError", err)
	}
	if !te.Retriable || te.Engine != "panicky" {
		t.Fatalf("TaskError = %+v, want retriable, engine panicky", te)
	}
	if eng.resets != 1 {
		t.Fatalf("engine resets = %d, want 1 (containment forfeits state)", eng.resets)
	}
	// The pool entry survives containment: next eval reuses the reset engine.
	if _, err := p.Eval("panicky", "acme", Call{Code: "fine"}, PolicyRetain); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().Creates.Load(); n != 1 {
		t.Fatalf("creates = %d, want 1", n)
	}
}

// Install's dispatch commands and Pool.Eval are two front doors onto one
// fragment-execution path, so a panicking engine must surface the same
// way through both: same TaskError code and retriability, one
// containment Reset each.
func TestInstallAndPoolContainPanicsIdentically(t *testing.T) {
	var engines []*panicEngine
	Register(Registration{Name: "panicky", Sig: Signature{Fixed: 1},
		New: func(h Host) Engine {
			engines = append(engines, &panicEngine{})
			return engines[len(engines)-1]
		}})
	defer Unregister("panicky")
	reg, _ := Lookup("panicky")

	in := tcl.New()
	Install(in, Host{}, PolicyRetain, nil, reg)
	_, installErr := in.Eval("panicky::eval boom")
	_, poolErr := NewPool(Host{}, 2, nil).Eval("panicky", "acme", Call{Code: "boom"}, PolicyRetain)

	var viaInstall, viaPool *TaskError
	if !errors.As(installErr, &viaInstall) || !errors.As(poolErr, &viaPool) {
		t.Fatalf("want *TaskError from both: install %v, pool %v", installErr, poolErr)
	}
	if viaInstall.Code != "panic" || !viaInstall.Retriable || viaInstall.Engine != "panicky" {
		t.Fatalf("install TaskError = %+v, want retriable panic from panicky", viaInstall)
	}
	if viaInstall.Code != viaPool.Code || viaInstall.Retriable != viaPool.Retriable ||
		viaInstall.Engine != viaPool.Engine || viaInstall.Err.Error() != viaPool.Err.Error() {
		t.Fatalf("front doors disagree: install %+v, pool %+v", viaInstall, viaPool)
	}
	if len(engines) != 2 || engines[0].resets != 1 || engines[1].resets != 1 {
		t.Fatalf("want one engine per door, each Reset once by containment; got %d engines %+v", len(engines), engines)
	}
}

func TestPoolReinitPolicyResetsEachEval(t *testing.T) {
	p := NewPool(Host{Out: io.Discard}, 2, nil)
	pyState(t, p, "acme", "x = 1")
	if _, err := p.Eval("python", "acme", Call{Code: "", Expr: "x", Want: KindInt}, PolicyReinit); err != nil {
		t.Fatal(err)
	}
	// State must be gone after the reinit eval.
	if _, err := p.Eval("python", "acme", Call{Code: "", Expr: "x", Want: KindInt}, PolicyRetain); err == nil {
		t.Fatal("state survived a PolicyReinit eval")
	}
	if n := p.Stats().Resets.Load(); n == 0 {
		t.Fatal("reinit policy did not count a reset")
	}
}

// TestPoolStatsSnapshotMirrors locks PoolStatsSnapshot to PoolStats:
// every atomic counter must appear in the snapshot with the same name
// and be copied by Snapshot(). The statsmirror analyzer enforces the
// structural half statically; this is the runtime backstop.
func TestPoolStatsSnapshotMirrors(t *testing.T) {
	var st PoolStats
	statstest.AssertMirror(t, &st, func() any { return st.Snapshot() })
}
