package serve

// HTTP surface tests: the JSON API over the same server the Go-level
// tests drive, including the typed 429 mapping and the /statsz payload.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lang"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPFragmentAndStatsz(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/api/v1/frag", FragmentRequest{
		Tenant: "acme", Lang: "python", Code: "x = 21 * 2", Expr: "x", Want: "int",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frag status = %d", resp.StatusCode)
	}
	var fr FragmentResult
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fr.Value.Kind != "int" || fr.Value.Int != 42 {
		t.Fatalf("frag value = %+v", fr.Value)
	}

	resp = postJSON(t, ts.URL+"/api/v1/run", ProgramRequest{
		Tenant: "acme", Source: `printf("ran %i", 6*7);`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	var rr struct {
		Stdout   string `json:"stdout"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(rr.Stdout, "ran 42") {
		t.Fatalf("run stdout = %q", rr.Stdout)
	}

	statsResp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(statsResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Serve.Fragments != 1 || snap.Serve.ProgramRuns != 1 {
		t.Fatalf("statsz serve counters = %+v", snap.Serve)
	}
	if snap.Serve.HTTPRequests < 3 {
		t.Fatalf("http request counter = %d", snap.Serve.HTTPRequests)
	}
	if snap.Tenants["acme"].Admitted != 2 {
		t.Fatalf("statsz tenant counters = %+v", snap.Tenants["acme"])
	}
}

func TestHTTPEvalErrorMaps422(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/api/v1/frag", FragmentRequest{
		Tenant: "acme", Lang: "python", Expr: "nope", Want: "string",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("eval error status = %d, want 422", resp.StatusCode)
	}
	var he httpError
	if err := json.NewDecoder(resp.Body).Decode(&he); err != nil {
		t.Fatal(err)
	}
	if he.Error == "" {
		t.Fatal("422 body carries no error message")
	}
}

func TestHTTPOverloadMaps429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1,
		Tenants: map[string]TenantConfig{
			// No queueing at all: the second concurrent request is a 429.
			"tiny": {MaxConcurrent: 1, MaxQueue: -1},
		}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := s.adm.gate("tiny")
	release, err := gate.acquire("tiny")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp := postJSON(t, ts.URL+"/api/v1/frag", FragmentRequest{
		Tenant: "tiny", Lang: "python", Expr: "1", Want: "int",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var he httpError
	if err := json.NewDecoder(resp.Body).Decode(&he); err != nil {
		t.Fatal(err)
	}
	if !he.Retriable {
		t.Fatal("429 not marked retriable")
	}
}

// blockEngine holds its evaluation until released, keeping a request in
// flight while the server closes.
type blockEngine struct {
	entered func()
	release chan struct{}
}

func (e *blockEngine) Name() string { return "blocker" }
func (e *blockEngine) Reset()       {}
func (e *blockEngine) Eval(c lang.Call) (lang.Value, error) {
	e.entered()
	<-e.release
	return lang.Str("done"), nil
}

func TestHTTPShuttingDownMaps503(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	enter := sync.OnceFunc(func() { close(entered) })
	lang.Register(lang.Registration{Name: "blocker", Sig: lang.Signature{Fixed: 1},
		New: func(lang.Host) lang.Engine { return &blockEngine{entered: enter, release: release} }})
	defer lang.Unregister("blocker")

	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path string, body any) (int, httpError) {
		resp := postJSON(t, ts.URL+path, body)
		defer resp.Body.Close()
		var he httpError
		json.NewDecoder(resp.Body).Decode(&he)
		return resp.StatusCode, he
	}
	want503 := func(when, path string, body any) {
		t.Helper()
		if code, he := post(path, body); code != http.StatusServiceUnavailable || !he.Retriable {
			t.Errorf("%s, %s answered %d %+v; want 503, retriable", when, path, code, he)
		}
	}
	frag := FragmentRequest{Tenant: "a", Lang: "python", Expr: "1", Want: "int"}
	prog := ProgramRequest{Tenant: "a", Source: `printf("%i", 1);`}

	inFlight := make(chan struct{})
	go func() {
		defer close(inFlight)
		want503("in flight at Close", "/api/v1/frag", FragmentRequest{Tenant: "a", Lang: "blocker", Code: "hold"})
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	<-inFlight
	// The world cannot finish draining while the engine holds its task.
	want503("during Close", "/api/v1/frag", frag)
	want503("during Close", "/api/v1/run", prog)
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Close did not return")
	}
	want503("after Close", "/api/v1/frag", frag)
	want503("after Close", "/api/v1/run", prog)
}
