package serve

// The two front doors — EvalFragment in process and POST /api/v1/frag —
// must be the same service: one request table, identical results and
// identical errors. Plus what the HTTP edge and Close owe a caller: a
// bounded body, and an answer instead of a hang once shutdown has begun.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/blob"
	"repro/internal/lang"
	"repro/internal/mpi"
)

// outcome is what a caller of either door observes.
type outcome struct {
	Status int
	Result FragmentResult
	Err    httpError
}

// String keeps a failure message readable when the value is megabytes of
// base64.
func (o outcome) String() string {
	if len(o.Result.Value.Blob) > 64 {
		o.Result.Value.Blob = o.Result.Value.Blob[:64] + "..."
	}
	return fmt.Sprintf("{%d %+v %+v}", o.Status, o.Result, o.Err)
}

func decodeOutcome(t *testing.T, status int, body io.Reader) outcome {
	t.Helper()
	o := outcome{Status: status}
	var err error
	if status == http.StatusOK {
		err = json.NewDecoder(body).Decode(&o.Result)
	} else {
		err = json.NewDecoder(body).Decode(&o.Err)
	}
	if err != nil {
		t.Fatalf("status %d: undecodable body: %v", status, err)
	}
	return o
}

// direct drives EvalFragment, rendering an error the way the handler would.
func direct(t *testing.T, s *Server, req FragmentRequest) outcome {
	t.Helper()
	res, err := s.EvalFragment(req)
	if err != nil {
		rec := httptest.NewRecorder()
		writeErr(rec, err)
		return decodeOutcome(t, rec.Code, rec.Body)
	}
	// Through JSON like the other door, so omitted-empty fields compare equal.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return decodeOutcome(t, http.StatusOK, bytes.NewReader(b))
}

func overHTTP(t *testing.T, url string, req FragmentRequest) outcome {
	t.Helper()
	resp := postJSON(t, url+"/api/v1/frag", req)
	defer resp.Body.Close()
	return decodeOutcome(t, resp.StatusCode, resp.Body)
}

func TestBothDoorsAgree(t *testing.T) {
	lang.Register(lang.Registration{
		Name: "chaoslang", Sig: lang.Signature{Fixed: 1},
		New: func(h lang.Host) lang.Engine { return &chaosEngine{} },
	})
	defer lang.Unregister("chaoslang")

	// 8 MiB of arbitrary bit patterns (NaNs and denormals included) viewed
	// as float64: it must come back bit for bit.
	big := make([]byte, 8<<20)
	rand.New(rand.NewSource(22)).Read(big)
	bigWire := ToWire(lang.BlobOf(blob.Blob{Data: big, Dims: []int{1 << 10, 1 << 10}, Elem: blob.ElemF64}))
	eight := ToWire(lang.Floats([]float64{1})).Blob

	cases := []struct {
		name   string
		req    FragmentRequest
		status int
		check  func(o outcome) bool
	}{
		{"int arg", FragmentRequest{Tenant: "a", Lang: "python", Expr: "argv1 * 2", Want: "int",
			Args: []WireValue{{Kind: "int", Int: 21}}}, 200,
			func(o outcome) bool { return o.Result.Value.Kind == "int" && o.Result.Value.Int == 42 }},
		{"float arg", FragmentRequest{Tenant: "a", Lang: "r", Expr: "argv1 / 4", Want: "float",
			Args: []WireValue{{Kind: "float", Float: 1}}}, 200,
			func(o outcome) bool { return o.Result.Value.Kind == "float" && o.Result.Value.Float == 0.25 }},
		{"string arg", FragmentRequest{Tenant: "a", Lang: "julia", Expr: "argv1", Want: "string",
			Args: []WireValue{{Kind: "string", Str: "}{ {{ ☃ \x00 [exit]"}}}, 200,
			func(o outcome) bool { return o.Result.Value.Str == "}{ {{ ☃ \x00 [exit]" }},
		{"printed output", FragmentRequest{Tenant: "a", Lang: "python", Code: "print('hello }{')"}, 200,
			func(o outcome) bool { return strings.Contains(o.Result.Output, "hello }{") }},
		{"8 MiB blob echo", FragmentRequest{Tenant: "a", Lang: "python", Expr: "argv1", Want: "blob",
			Args: []WireValue{bigWire}}, 200,
			func(o outcome) bool { return o.Result.Value.Blob == bigWire.Blob && o.Result.Value.Elem == "f64" }},
		{"session: set", FragmentRequest{Tenant: "a", Session: "s1", Lang: "python", Code: "kept = 5"}, 200, nil},
		{"session: sticky read", FragmentRequest{Tenant: "a", Session: "s1", Lang: "python", Expr: "kept", Want: "int"}, 200,
			func(o outcome) bool { return o.Result.Value.Int == 5 }},
		{"session: read, then reinit", FragmentRequest{Tenant: "a", Session: "s1", Lang: "python", Expr: "kept", Want: "int", Reinit: true}, 200,
			func(o outcome) bool { return o.Result.Value.Int == 5 }},
		{"session: forgotten", FragmentRequest{Tenant: "a", Session: "s1", Lang: "python", Expr: "kept", Want: "int"}, 422,
			func(o outcome) bool { return !o.Err.Retriable }},
		{"engine panic", FragmentRequest{Tenant: "a", Lang: "chaoslang", Code: "explode"}, 422,
			func(o outcome) bool { return o.Err.Retriable }},
		{"after the panic", FragmentRequest{Tenant: "a", Lang: "chaoslang", Code: "status"}, 200,
			func(o outcome) bool { return o.Result.Value.Str == "calm" }},
		{"negative dims", FragmentRequest{Tenant: "a", Lang: "python", Expr: "argv1", Want: "blob",
			Args: []WireValue{{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{-1}}}}, 400, nil},
		{"overflowing dims", FragmentRequest{Tenant: "a", Lang: "julia", Expr: "argv1", Want: "blob",
			Args: []WireValue{{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{1 << 40, 1 << 40}}}}, 400, nil},
		{"dims past the payload", FragmentRequest{Tenant: "a", Lang: "tcl", Code: "set argv1", Want: "blob",
			Args: []WireValue{{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{5}}}}, 400, nil},
		{"ragged payload", FragmentRequest{Tenant: "a", Lang: "python", Expr: "argv1", Want: "blob",
			Args: []WireValue{{Kind: "blob", Blob: eight[:8], Elem: "f64"}}}, 400, nil},
		{"unknown want", FragmentRequest{Tenant: "a", Lang: "python", Expr: "1", Want: "tensor"}, 400, nil},
		{"unknown language", FragmentRequest{Tenant: "a", Lang: "cobol"}, 400, nil},
		{"no tenant", FragmentRequest{Lang: "python", Expr: "1"}, 400, nil},
	}

	// One server per door so the session cases see the same history.
	sd := newTestServer(t, Config{})
	sh := newTestServer(t, Config{})
	ts := httptest.NewServer(sh.Handler())
	defer ts.Close()
	for _, c := range cases {
		d, h := direct(t, sd, c.req), overHTTP(t, ts.URL, c.req)
		if !reflect.DeepEqual(d, h) {
			t.Errorf("%s: the doors disagree:\n direct %v\n   http %v", c.name, d, h)
			continue
		}
		if d.Status != c.status || (c.check != nil && !c.check(d)) {
			t.Errorf("%s: status %d (want %d), outcome %v", c.name, d.Status, c.status, d)
		}
	}
	// Refused requests never reached a worker, on either server.
	for _, s := range []*Server{sd, sh} {
		snap := s.Stats()
		if snap.Serve.Fragments != 11 || snap.Pool.Evals != 11 {
			t.Errorf("fragments submitted = %d, evaluated = %d, want the 11 well-formed cases",
				snap.Serve.Fragments, snap.Pool.Evals)
		}
	}
}

// TestGatewayFlushesItsPut: the gateway's Put of a fragment task is a
// batched write, and the gateway then waits on the request's channel,
// not on ADLB, so nothing but its own Flush would send it. A lone
// fragment on a quiet server must be answered, not time out.
func TestGatewayFlushesItsPut(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 5 * time.Second})
	res, err := s.EvalFragment(FragmentRequest{Tenant: "a", Lang: "python", Expr: "6 * 7", Want: "int"})
	if err != nil {
		t.Fatalf("a lone fragment: %v", err)
	}
	if res.Value.Kind != "int" || res.Value.Int != 42 {
		t.Fatalf("a lone fragment reads %+v, want the int 42", res.Value)
	}
}

// TestWorkerFlushesHeldResponses: a worker's response Put is a batched
// write, and a leased Get may answer the worker from the items it holds
// with no RPC. The Get still sends the pending response first, so a
// held fragment's response reaches the collector before the worker runs
// the next held fragment. Eight fragments go out in one frame to the one
// worker, whose Gets then take shares of them; the third is slow (a few
// hundred milliseconds), so when the second's response arrives no
// fragment after the third can have started.
func TestWorkerFlushesHeldResponses(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if _, err := s.EvalFragment(FragmentRequest{Tenant: "a", Lang: "python", Expr: "1", Want: "int"}); err != nil {
		t.Fatal(err)
	}
	base := s.poolStats.Evals.Load()
	const slow = "s = 0\nfor k in range(8000000):\n    s = s + k"
	chans := make([]chan fragResp, 8)
	s.gwMu.Lock()
	for i := range chans {
		req := FragmentRequest{Tenant: "a", Lang: "python", Expr: strconv.Itoa(i), Want: "int"}
		if i == 2 {
			req.Code, req.Expr = slow, "s"
		}
		task, err := newFragTask(req)
		if err != nil {
			t.Fatal(err)
		}
		task.ReqID = s.nextReq.Add(1)
		chans[i] = make(chan fragResp, 1)
		s.pendMu.Lock()
		s.pending[task.ReqID] = chans[i]
		s.pendMu.Unlock()
		payload, err := task.encode()
		if err == nil {
			err = s.gw.Put(typeTask, 0, adlb.AnyRank, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	err := s.gw.Flush()
	s.gwMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != "" {
				t.Fatalf("fragment %d: %s", i, r.Err)
			}
			if i == 1 {
				if started := s.poolStats.Evals.Load() - base; started > 3 {
					t.Fatalf("fragment 1's response arrived after %d fragments ran: it waited behind the slow one", started)
				}
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("fragment %d never answered", i)
		}
	}
}

// TestSecondResponseIsLate: when a lease is reclaimed and its task runs
// twice, the collector sees two responses for one request id. The second
// finds no waiter and must be dropped and counted, not delivered.
func TestSecondResponseIsLate(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.EvalFragment(FragmentRequest{Tenant: "a", Lang: "python", Expr: "1", Want: "int"}); err != nil {
		t.Fatal(err)
	}
	again, err := fragResp{ReqID: s.nextReq.Load(), Value: lang.Int(1)}.encode()
	if err != nil {
		t.Fatal(err)
	}
	s.gwMu.Lock()
	err = s.gw.Put(typeResp, 0, collectorRank, again)
	if err == nil {
		err = s.gw.Flush()
	}
	s.gwMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Serve.LateResponses != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("late responses = %d, want the duplicate counted", s.Stats().Serve.LateResponses)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPOversizedBodyIs413(t *testing.T) {
	if maxBodyBytes < mpi.MaxFrameBody/3*4 {
		t.Fatalf("body bound %d cannot hold a base64 frame payload of %d bytes", maxBodyBytes, mpi.MaxFrameBody)
	}
	defer func(n int64) { maxBodyBytes = n }(maxBodyBytes)
	maxBodyBytes = 4 << 10

	s := newTestServer(t, Config{})
	post := func(path, field string, n int) int {
		body := `{"tenant":"a","lang":"python","` + field + `":"` + strings.Repeat(" ", n) + `"}`
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	for path, field := range map[string]string{"/api/v1/frag": "code", "/api/v1/run": "source"} {
		if code := post(path, field, 1<<10); code != http.StatusOK {
			t.Errorf("%s: body under the bound answered %d, want 200", path, code)
		}
		if code := post(path, field, 8<<10); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: body over the bound answered %d, want 413", path, code)
		}
	}
}

func returnsWithin(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

func TestEvalFragmentAfterCloseReturns(t *testing.T) {
	s, err := New(Config{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	req := FragmentRequest{Tenant: "a", Lang: "python", Expr: "1", Want: "int"}
	returnsWithin(t, 5*time.Second, "EvalFragment on a closed server", func() {
		if _, err := s.EvalFragment(req); !errors.Is(err, errShuttingDown) {
			t.Errorf("EvalFragment after Close = %v, want %v", err, errShuttingDown)
		}
	})
	// Later callers are not queued behind a wedged one, and the slot came back.
	returnsWithin(t, 5*time.Second, "a second EvalFragment on a closed server", func() { s.EvalFragment(req) })
	if in := s.Stats().Tenants["a"].InFlight; in != 0 {
		t.Errorf("%d admission slots still held after Close", in)
	}
}

func TestCloseRacingEvalFragment(t *testing.T) {
	s, err := New(Config{Workers: 2, RequestTimeout: 2 * time.Second,
		Tenants: map[string]TenantConfig{"a": {MaxConcurrent: 8, MaxQueue: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg, started sync.WaitGroup
	started.Add(callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			once := sync.OnceFunc(started.Done)
			for {
				_, err := s.EvalFragment(FragmentRequest{Tenant: "a", Lang: "python", Expr: "1", Want: "int"})
				once()
				if err != nil {
					if !errors.Is(err, errShuttingDown) {
						t.Errorf("caller saw %v, want success or %v", err, errShuttingDown)
					}
					return
				}
			}
		}()
	}
	started.Wait() // every caller is mid-stream when Close lands
	returnsWithin(t, 20*time.Second, "Close with callers in flight", func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	returnsWithin(t, 20*time.Second, "EvalFragment callers after Close", wg.Wait)
}
