package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/lang"
	"repro/internal/serve"
)

// serveClients is the closed-loop client count of serve_frags: callers of
// swiftd wait for their reply before sending the next request, and there
// are never more generators than cores.
const serveClients = 2

// The serve_frags traffic mix, in percent of requests.
const (
	mixBlobPct   = 15 // fragments carrying a blob argument
	mixReinitPct = 5  // tiny fragments that reinitialise the interpreter
)

// fragSlot is one position of a client's request schedule. The request
// body is head + blob + mid + <x> + tail: blob is the base64 payload of a
// blob argument, shared between slots (nil on the tiny fragments), and x
// changes every repetition so that no two requests of a run carry the
// same arguments.
type fragSlot struct {
	head, blob, mid, tail []byte
	frac                  float64                 // seeded fraction added to the request counter
	want                  func(x float64) float64 // the oracle
}

// body assembles the request for argument x into buf.
func (s *fragSlot) body(buf []byte, x float64) []byte {
	buf = append(buf[:0], s.head...)
	buf = append(buf, s.blob...)
	buf = append(buf, s.mid...)
	buf = strconv.AppendFloat(buf, x, 'f', -1, 64)
	return append(buf, s.tail...)
}

type serveWorkload struct {
	seed int64
	sz   sizes

	srv    *serve.Server
	ts     *httptest.Server
	client [serveClients]*http.Client
	sched  [serveClients][]fragSlot
	reps   int // repetitions done, so arguments never repeat
}

var serveTenants = map[string]serve.TenantConfig{
	"gold":   {Priority: 10},
	"bronze": {Priority: 0},
}

// tinyFrags are the typed fragments of the 80% share: the ensemble's own.
var tinyFrags = []struct {
	lang, expr string
	want       func(x float64) float64
}{
	{"python", smallPy, func(x float64) float64 { return x*2 + 1 }},
	{"r", smallR, func(x float64) float64 { return x + 0.5 }},
	{"julia", smallJl, func(x float64) float64 { return x * x }},
}

// Markers stand in the marshalled request where the shared blob payload
// and the per-request float go.
const (
	blobMarker  = "@blob@"
	floatMarker = 123456789.25
)

// newSlot marshals req, with one more float argument at the end, into the
// pieces of a fragSlot. A blob argument must carry blobMarker as payload.
func newSlot(req serve.FragmentRequest, blob []byte) (fragSlot, error) {
	req.Args = append(req.Args, serve.WireValue{Kind: "float", Float: floatMarker})
	body, err := json.Marshal(req)
	if err != nil {
		return fragSlot{}, err
	}
	rest, tail, ok := bytes.Cut(body, []byte(strconv.FormatFloat(floatMarker, 'f', -1, 64)))
	if !ok {
		return fragSlot{}, fmt.Errorf("float marker not found in request body")
	}
	if blob == nil {
		return fragSlot{head: rest, tail: tail}, nil
	}
	head, mid, ok := bytes.Cut(rest, []byte(blobMarker))
	if !ok {
		return fragSlot{}, fmt.Errorf("blob marker not found in request body")
	}
	return fragSlot{head: head, blob: blob, mid: mid, tail: tail}, nil
}

// genSchedule builds one client's seeded request schedule.
func genSchedule(rng *rand.Rand, n, blobBytes int) ([]fragSlot, error) {
	// A few distinct blob arguments, shared by the blob-bearing slots.
	type blobArg struct {
		wire    serve.WireValue
		payload []byte
		sum     float64
	}
	blobs := make([]blobArg, 4)
	for i := range blobs {
		v := make([]float64, blobBytes/8)
		var sum float64
		for k := range v {
			v[k] = rng.Float64()
			sum += v[k]
		}
		wire := serve.ToWire(lang.Floats(v))
		payload := []byte(wire.Blob)
		wire.Blob = blobMarker
		blobs[i] = blobArg{wire, payload, sum}
	}
	sched := make([]fragSlot, n)
	for j := range sched {
		req := serve.FragmentRequest{Tenant: "bronze", Want: "float"}
		if rng.Intn(2) == 0 {
			req.Tenant = "gold"
		}
		if rng.Intn(2) == 0 {
			req.Session = "s" + strconv.Itoa(rng.Intn(4))
		}
		frac := rng.Float64()
		var payload []byte
		var want func(x float64) float64
		switch p := rng.Intn(100); {
		case p < mixBlobPct:
			b := blobs[rng.Intn(len(blobs))]
			req.Lang, req.Expr = "python", "sum(argv1) + argv2"
			req.Args = []serve.WireValue{b.wire}
			payload = b.payload
			want = func(x float64) float64 { return b.sum + x }
		default:
			f := tinyFrags[rng.Intn(len(tinyFrags))]
			req.Lang, req.Expr = f.lang, f.expr
			req.Reinit = p < mixBlobPct+mixReinitPct
			want = f.want
		}
		slot, err := newSlot(req, payload)
		if err != nil {
			return nil, err
		}
		slot.frac, slot.want = frac, want
		sched[j] = slot
	}
	return sched, nil
}

func newServeWorkload(seed int64, sz sizes) *workload {
	s := &serveWorkload{seed: seed, sz: sz}
	return &workload{
		name: "serve_frags", unit: "fragments", run: "one HTTP fragment request",
		units:   float64(serveClients * sz.FragsPerClient),
		workers: 2,
		detail: fmt.Sprintf("closed loop, %d clients x %d requests per repetition; %d%% blob (%d KiB), %d%% reinit, 2 tenants, half session-sticky",
			serveClients, sz.FragsPerClient, mixBlobPct, sz.FragBlobBytes>>10, mixReinitPct),
		setup: s.setup, rep: s.rep, close: s.close,
	}
}

func (s *serveWorkload) setup(tr *tracer, parent spanID) error {
	for c := range s.sched {
		sched, err := genSchedule(rngFor(s.seed, "serve_frags/"+strconv.Itoa(c)), s.sz.FragsPerClient, s.sz.FragBlobBytes)
		if err != nil {
			return err
		}
		s.sched[c] = sched
		s.client[c] = &http.Client{Transport: &http.Transport{}}
	}
	sp := tr.begin(parent, "serve.New")
	srv, err := serve.New(serve.Config{Workers: 2, Servers: 1, Tenants: serveTenants})
	tr.end(sp)
	if err != nil {
		return err
	}
	s.srv = srv
	s.ts = httptest.NewServer(srv.Handler())
	if out := s.rep(tr, parent); out.failed > 0 {
		return fmt.Errorf("warm-up repetition: %s", out.firstErr)
	}
	return nil
}

func (s *serveWorkload) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	for _, c := range s.client {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// fragReply is the part of a fragment response the oracle reads.
type fragReply struct {
	Value serve.WireValue `json:"value"`
}

// postFrag sends one fragment request and returns the float it evaluated to.
func postFrag(c *http.Client, url string, body []byte) (float64, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, clip(string(data)))
	}
	var r fragReply
	if err := json.Unmarshal(data, &r); err != nil {
		return 0, err
	}
	if r.Value.Kind != "float" {
		return 0, fmt.Errorf("reply kind %q, want float", r.Value.Kind)
	}
	return r.Value.Float, nil
}

func (s *serveWorkload) rep(tr *tracer, parent spanID) repOut {
	url := s.ts.URL + "/api/v1/frag"
	base := float64(s.reps * s.sz.FragsPerClient)
	s.reps++
	before := s.srv.Stats()

	outs := make([]repOut, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.runs = make([]float64, 0, len(s.sched[c]))
			var body []byte
			for j, slot := range s.sched[c] {
				x := base + float64(j) + slot.frac
				body = slot.body(body, x)
				out.attempted++
				sp := tr.beginLane(parent, "serve.http_frag", c+1)
				r0 := time.Now()
				got, err := postFrag(s.client[c], url, body)
				lat := time.Since(r0)
				tr.end(sp)
				if err != nil {
					out.fail(err)
					continue
				}
				out.runs = append(out.runs, float64(lat)/float64(time.Millisecond))
				if want := slot.want(x); !closeTo(got, want) {
					out.fail(fmt.Errorf("fragment returned %.17g, oracle %.17g", got, want))
				}
			}
		}(c)
	}
	wg.Wait()
	total := repOut{wall: time.Since(t0)}
	for _, o := range outs {
		total.runs = append(total.runs, o.runs...)
		total.attempted += o.attempted
		total.failed += o.failed
		if total.firstErr == "" {
			total.firstErr = o.firstErr
		}
	}
	after := s.srv.Stats()
	// A snapshot difference is what this repetition added.
	a, b := serveCounts(after), serveCounts(before)
	for i := range a.n {
		total.counts.n[i] = a.n[i] - b.n[i]
	}
	return total
}

// serveCounts reads the counters a serve.Snapshot carries.
func serveCounts(s serve.Snapshot) counts {
	var c counts
	c.adlbCounts(s.ADLB)
	c.n[cLeaves] = s.Serve.Fragments
	c.n[cTimeouts] = s.Serve.FragmentTimeouts
	c.n[cLate] = s.Serve.LateResponses
	c.n[cParseHits] = s.Pool.ParseHits
	c.n[cParseMisses] = s.Pool.ParseMisses
	for _, t := range s.Tenants {
		c.n[cAdmitted] += t.Admitted
		c.n[cRejected] += t.Rejected
	}
	return c
}
