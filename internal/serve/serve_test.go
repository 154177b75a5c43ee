package serve

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 20 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func TestFragmentRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	res, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python",
		Code: "x = 6 * 7", Expr: "x", Want: "int",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Kind != "int" || res.Value.Int != 42 {
		t.Fatalf("value = %+v, want int 42", res.Value)
	}
}

func TestFragmentTypedArgsAndBlobResult(t *testing.T) {
	s := newTestServer(t, Config{})
	arg, err := func() (WireValue, error) {
		return WireValue{Kind: "int", Int: 5}, nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python",
		Code: "y = argv1 * 3", Expr: "y", Want: "int",
		Args: []WireValue{arg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Int != 15 {
		t.Fatalf("argv-bound result = %+v, want 15", res.Value)
	}
}

func TestFragmentOutputCapture(t *testing.T) {
	s := newTestServer(t, Config{})
	res, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python",
		Code: "print('hello from tenant')",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "hello from tenant") {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestSessionStateIsSticky(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3})
	if _, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Session: "sess-1", Lang: "python",
		Code: "counter = 10",
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		res, err := s.EvalFragment(FragmentRequest{
			Tenant: "acme", Session: "sess-1", Lang: "python",
			Code: "counter = counter + 1", Expr: "counter", Want: "int",
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value.Int != int64(10+i) {
			t.Fatalf("session state after %d increments = %d", i, res.Value.Int)
		}
	}
}

func TestFragmentUserErrorIsTyped(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python",
		Expr: "undefined_name", Want: "string",
	})
	var ee *EvalError
	if !errors.As(err, &ee) {
		t.Fatalf("error = %v, want *EvalError", err)
	}
	// The service must survive the error: the next call works.
	if _, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python", Expr: "1 + 1", Want: "int",
	}); err != nil {
		t.Fatalf("service dead after user error: %v", err)
	}
}

func TestUnknownLanguageRejectedAtGateway(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.EvalFragment(FragmentRequest{Tenant: "acme", Lang: "cobol"}); err == nil {
		t.Fatal("unknown language accepted")
	}
}

func TestProgramRunAndCache(t *testing.T) {
	s := newTestServer(t, Config{})
	req := ProgramRequest{Tenant: "acme", Source: `printf("val %s", python("v = 6*7", "v"));`}
	r1, err := s.RunProgram(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r1.Stdout, "val 42") {
		t.Fatalf("stdout = %q", r1.Stdout)
	}
	if r1.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	r2, err := s.RunProgram(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("repeat submission missed the program cache")
	}
	if !strings.Contains(r2.Stdout, "val 42") {
		t.Fatalf("cached-run stdout = %q", r2.Stdout)
	}
}

func TestProgramCompileErrorNotCached(t *testing.T) {
	s := newTestServer(t, Config{})
	bad := ProgramRequest{Tenant: "acme", Source: `this is not swift`}
	if _, err := s.RunProgram(bad); err == nil {
		t.Fatal("bad program compiled")
	}
	if _, err := s.RunProgram(bad); err == nil {
		t.Fatal("bad program compiled on retry")
	}
	snap := s.Stats()
	if snap.ProgramCache.Entries != 0 {
		t.Fatalf("compile errors entered the cache: %d entries", snap.ProgramCache.Entries)
	}
	if snap.ProgramCache.Misses < 2 {
		t.Fatalf("misses = %d, want both failed lookups counted", snap.ProgramCache.Misses)
	}
}

func TestStatsSnapshotCoversLayers(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python", Code: "z = 1", Expr: "z", Want: "int",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunProgram(ProgramRequest{Tenant: "acme", Source: `printf("x");`}); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats()
	if snap.Serve.Fragments != 1 || snap.Serve.ProgramRuns != 1 {
		t.Fatalf("serve counters = %+v", snap.Serve)
	}
	if snap.Pool.Evals != 1 || snap.Pool.Creates != 1 {
		t.Fatalf("pool counters = %+v", snap.Pool)
	}
	if snap.Tenants["acme"].Admitted != 2 {
		t.Fatalf("tenant counters = %+v", snap.Tenants["acme"])
	}
	if snap.ADLB.PutsLocal+snap.ADLB.PutsForwarded == 0 {
		t.Fatal("warm world's adlb counters empty")
	}
	if snap.ProgramCache.Entries != 1 {
		t.Fatalf("program cache entries = %d", snap.ProgramCache.Entries)
	}
}

// TestIdleWorldStaysUpAndServes: a warm world left idle for half a
// second, its servers asleep on their mailboxes, is still up — the
// never-parking gateway keeps termination from collecting it — and then
// serves, on a two-server ring, a fragment and a session-sticky one.
func TestIdleWorldStaysUpAndServes(t *testing.T) {
	s := newTestServer(t, Config{Servers: 2})
	time.Sleep(500 * time.Millisecond)
	res, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "python", Code: "x = 6 * 7", Expr: "x", Want: "int",
	})
	if err != nil || res.Value.Int != 42 {
		t.Fatalf("python after idling: %+v, %v", res.Value, err)
	}
	for i, code := range []string{"n <- 1", "n <- n + 1"} {
		res, err := s.EvalFragment(FragmentRequest{
			Tenant: "acme", Session: "idle", Lang: "r", Code: code, Expr: "n", Want: "float",
		})
		if err != nil || res.Value.Float != float64(i+1) {
			t.Fatalf("r session call %d after idling: %+v, %v", i, res.Value, err)
		}
	}
}

func TestGracefulShutdownDrainsWorld(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvalFragment(FragmentRequest{
		Tenant: "acme", Lang: "tcl", Code: "expr {2 + 2}", Want: "string",
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Close hung: warm world did not drain")
	}
}
