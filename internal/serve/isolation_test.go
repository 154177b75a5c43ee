package serve

// Tenant-isolation chaos tests: tenant A defines globals and blows up its
// interpreter mid-request while tenant B runs concurrently on the same
// warm world — B must never observe A's state, neither concurrently nor
// in subsequent requests, in any engine. PoolEngines is pinned to 1 so
// every tenant switch takes the reuse-and-reset path (the risky one)
// instead of getting a naturally fresh engine.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/lang/conformance"
)

// fragOf maps a conformance fragment onto a serve request for language.
func fragOf(t *testing.T, language string, f conformance.Frag) (code, expr string) {
	t.Helper()
	reg, ok := lang.Lookup(language)
	if !ok {
		t.Fatalf("language %q not registered", language)
	}
	c := f.Call(reg, nil, lang.KindString)
	return c.Code, c.Expr
}

func TestTenantIsolationAcrossAllEngines(t *testing.T) {
	// One worker, one pooled engine: every request lands on the same pool
	// and every tenant switch takes the reuse-and-reset path.
	s := newTestServer(t, Config{Workers: 1, PoolEngines: 1})
	for language, d := range conformance.Dialects {
		if d.Exempt {
			continue
		}
		t.Run(language, func(t *testing.T) {
			setCode, setExpr := fragOf(t, language, d.StateSet)
			readCode, readExpr := fragOf(t, language, d.StateRead)

			// Tenant A binds the global g = 41.
			if _, err := s.EvalFragment(FragmentRequest{
				Tenant: "tenant-a", Lang: language, Code: setCode, Expr: setExpr,
			}); err != nil {
				t.Fatalf("tenant A state set: %v", err)
			}
			// Tenant A sees its own state (sanity: the pool retains within
			// a tenant)...
			resA, err := s.EvalFragment(FragmentRequest{
				Tenant: "tenant-a", Lang: language, Code: readCode, Expr: readExpr,
			})
			if err != nil {
				t.Fatalf("tenant A read own state: %v", err)
			}
			got := resA.Value.Str
			if resA.Value.Kind == "int" {
				got = fmt.Sprint(resA.Value.Int)
			}
			if got != "41" {
				t.Fatalf("tenant A read own state: %+v", resA.Value)
			}
			// ...but tenant B reading the same global must find it undefined,
			// even though (PoolEngines=1) it reuses A's interpreter.
			resB, err := s.EvalFragment(FragmentRequest{
				Tenant: "tenant-b", Lang: language, Code: readCode, Expr: readExpr,
			})
			if err == nil {
				t.Fatalf("tenant B observed tenant A's state: %+v", resB.Value)
			}
			var ee *EvalError
			if !errors.As(err, &ee) {
				t.Fatalf("isolation surfaced as %v, want *EvalError (undefined global)", err)
			}
		})
	}
}

func TestTenantIsolationUnderConcurrency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, PoolEngines: 1,
		Tenants: map[string]TenantConfig{
			"writer": {MaxConcurrent: 4, MaxQueue: 64},
			"reader": {MaxConcurrent: 4, MaxQueue: 64},
		}})
	var wg sync.WaitGroup
	const rounds = 12
	// Tenant "writer" hammers globals in python while tenant "reader"
	// concurrently probes for them. A reader that ever sees the value is
	// an isolation breach; an error (undefined) is the only correct
	// outcome.
	wg.Add(2)
	errs := make(chan error, rounds)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.EvalFragment(FragmentRequest{
				Tenant: "writer", Lang: "python",
				Code: fmt.Sprintf("leak_probe = %d", i),
			}); err != nil {
				errs <- fmt.Errorf("writer round %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res, err := s.EvalFragment(FragmentRequest{
				Tenant: "reader", Lang: "python",
				Expr: "leak_probe", Want: "string",
			})
			if err == nil {
				errs <- fmt.Errorf("reader round %d observed writer state: %+v", i, res.Value)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// chaosEngine panics whenever asked to, standing in for an interpreter
// that corrupts itself mid-request.
type chaosEngine struct{}

func (e *chaosEngine) Name() string { return "chaoslang" }
func (e *chaosEngine) Eval(c lang.Call) (lang.Value, error) {
	if c.Code == "explode" {
		panic("chaos: interpreter corrupted mid-request")
	}
	return lang.Str("calm"), nil
}
func (e *chaosEngine) Reset() {}

func TestTenantPanicIsContainedPerRequest(t *testing.T) {
	lang.Register(lang.Registration{
		Name: "chaoslang", Sig: lang.Signature{Fixed: 1},
		New: func(h lang.Host) lang.Engine { return &chaosEngine{} },
	})
	defer lang.Unregister("chaoslang")

	s := newTestServer(t, Config{Workers: 1, PoolEngines: 2})
	// Tenant A's interpreter panics mid-request: A gets a retriable typed
	// error, not a dead service.
	_, err := s.EvalFragment(FragmentRequest{Tenant: "tenant-a", Lang: "chaoslang", Code: "explode"})
	var ee *EvalError
	if !errors.As(err, &ee) || !ee.Retriable {
		t.Fatalf("panic surfaced as %v, want retriable *EvalError", err)
	}
	// Tenant B's concurrent-world request on the same worker works, as
	// does A's own next request.
	for _, tenant := range []string{"tenant-b", "tenant-a"} {
		res, err := s.EvalFragment(FragmentRequest{Tenant: tenant, Lang: "chaoslang", Code: "status"})
		if err != nil || res.Value.Str != "calm" {
			t.Fatalf("%s after panic: %+v, %v", tenant, res.Value, err)
		}
	}
	// Python on the same worker is also unaffected.
	res, err := s.EvalFragment(FragmentRequest{
		Tenant: "tenant-b", Lang: "python", Expr: "2 ** 5", Want: "int",
	})
	if err != nil || res.Value.Int != 32 {
		t.Fatalf("python after chaos: %+v, %v", res.Value, err)
	}
}
