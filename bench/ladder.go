package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/adlb"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/jlite"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/pylite"
	"repro/internal/rlite"
	"repro/internal/serve"
	"repro/internal/stc"
	"repro/internal/tcl"
)

// The ladder drives each layer alone, from outside, with the workloads'
// own fragments and sizes, and prices one operation of each. Every probe
// is a span; the unit cost is the span over the operations inside it.
type ladder struct {
	tr   *tracer
	root spanID
	seed int64
	sz   sizes
	vals map[string]float64
	errs []string
}

// n scales a full-size iteration count by sizes.LadderScale.
func (l *ladder) n(full int) int {
	n := full * l.sz.LadderScale / 100
	if n < 2 {
		n = 2
	}
	return n
}

func (l *ladder) fail(probe string, err error) {
	l.errs = append(l.errs, probe+": "+err.Error())
}

// timed runs fn under a span and returns its duration.
func (l *ladder) timed(name string, fn func() error) time.Duration {
	sp := l.tr.begin(l.root, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.tr.end(sp)
	if err != nil {
		l.fail(name, err)
	}
	return d
}

func us(d time.Duration, ops int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(ops)
}
func ns(d time.Duration, ops int) float64 { return float64(d) / float64(ops) }
func mbps(bytes int, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

// noopEngine is the engine behind turbine.leafcall_noop_us: a leaf call
// that crosses every dispatch layer and does nothing at the end.
type noopEngine struct{ evals int64 }

func (e *noopEngine) Name() string { return "noop" }
func (e *noopEngine) Eval(c lang.Call) (lang.Value, error) {
	e.evals++
	return lang.Str(""), nil
}
func (e *noopEngine) Reset()       {}
func (e *noopEngine) Evals() int64 { return e.evals }

var registerNoop sync.Once

func runLadder(tr *tracer, seed int64, sz sizes) *ladder {
	registerNoop.Do(func() {
		lang.Register(lang.Registration{
			Name: "noop", Sig: lang.Signature{Fixed: 1, Result: lang.ResultString},
			New: func(lang.Host) lang.Engine { return &noopEngine{} },
		})
	})
	l := &ladder{tr: tr, seed: seed, sz: sz, vals: make(map[string]float64)}
	l.root = tr.root("bench.ladder", "ladder", 0)
	defer tr.end(l.root)
	l.probeCompileAndStartup()
	l.probeTcl()
	l.probeTurbine()
	l.probeADLB()
	l.probeMPI()
	l.probeLang()
	l.probeInterps()
	l.probeChunkBlob()
	l.probeServe()
	return l
}

func (l *ladder) probeCompileAndStartup() {
	src := genEnsembleSmall(l.seed, l.sz.Pipelines).src
	n := l.n(5)
	d := l.timed("stc.Compile ensemble_small", func() error {
		for i := 0; i < n; i++ {
			if _, err := stc.Compile(src); err != nil {
				return err
			}
		}
		return nil
	})
	l.vals["stc.compile_us"] = us(d, n)

	// World stand-up: the empty program through the cold_runs door.
	empty, err := stc.Compile("")
	if err != nil {
		l.fail("core.world_startup", err)
		return
	}
	n = l.n(100)
	var allocs uint64
	d = l.timed("core.RunCompiled empty", func() error {
		m0 := mallocs()
		for i := 0; i < n; i++ {
			if _, err := core.RunCompiled(empty, coldConfig); err != nil {
				return err
			}
		}
		allocs = mallocs() - m0
		return nil
	})
	l.vals["core.world_startup_us"] = us(d, n)
	l.vals["core.world_startup_allocs"] = float64(allocs) / float64(n)
}

// The two shapes of BenchmarkTclEval that Turbine pays per task.
const (
	tclLoopBody = `
		set s 0
		for {set i 0} {$i < 100} {incr i} {
			set s [expr {$s + $i * $i}]
		}
		set s`
	tclProcDef = `proc work {n} {
		set acc 0
		foreach x {1 2 3 4 5 6 7 8} {
			set acc [expr {$acc + $x * $n}]
		}
		return $acc
	}`
)

func (l *ladder) probeTcl() {
	in := tcl.New()
	evalN := func(script, want string, n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				out, err := in.Eval(script)
				if err != nil {
					return err
				}
				if out != want {
					return fmt.Errorf("%q evaluated to %q, want %q", clip(script), out, want)
				}
			}
			return nil
		}
	}
	if _, err := in.Eval(tclProcDef); err != nil {
		l.fail("tcl", err)
		return
	}
	n := l.n(600)
	_ = evalN(tclLoopBody, "328350", 3)() // fill the parse caches
	m0 := mallocs()
	d := l.timed("tcl.Eval loop-body", evalN(tclLoopBody, "328350", n))
	l.vals["tcl.allocs_per_eval"] = float64(mallocs()-m0) / float64(n)
	l.vals["tcl.rule_eval_us"] = us(d, n)
	n = l.n(6000)
	d = l.timed("tcl.Eval proc-call", evalN("work 3", "108", n))
	l.vals["tcl.proc_call_us"] = us(d, n)
}

func (l *ladder) probeTurbine() {
	runProg := func(name, src string, reps int, perOp func(*core.Result) int64) float64 {
		compiled, err := stc.Compile(src)
		if err != nil {
			l.fail(name, err)
			return 0
		}
		best := math.Inf(1)
		for k := 0; k < reps; k++ {
			var res *core.Result
			d := l.timed(name, func() (err error) {
				res, err = core.RunCompiled(compiled, inprocWorld)
				return err
			})
			if res == nil {
				return 0
			}
			if v := us(d, int(perOp(res))); v < best {
				best = v
			}
		}
		return best
	}
	n := l.n(1500)
	l.vals["turbine.control_task_us"] = runProg("core.RunCompiled control-only", fmt.Sprintf(`
		(int o) fast(int i) { o = i + 1; }
		foreach i in [0:%d] { int v = fast(i); }`, n-1),
		2, func(r *core.Result) int64 { return r.ControlTasks })
	l.vals["turbine.leafcall_noop_us"] = runProg("core.RunCompiled noop leaves", fmt.Sprintf(`
		foreach i in [0:%d] { string s = noop("x"); }`, n-1),
		2, func(r *core.Result) int64 { return r.LeafTasks })

	// How the vector round trip scales: log2 of wall(2n)/wall(n).
	half := l.sz.VecN / 2
	one := func(*core.Result) int64 { return 1 }
	wn := runProg("core.RunCompiled vector n/2", genVector(l.seed, half, 1).src, 2, one)
	w2n := runProg("core.RunCompiled vector n", genVector(l.seed, 2*half, 1).src, 2, one)
	if wn > 0 && w2n > 0 {
		l.vals["turbine.vec_scaling_exp"] = math.Log2(w2n / wn)
	}
}

// adlbWorld runs fn as the only client of a one-server ADLB world and
// lets the server drain afterwards.
func adlbWorld(fn func(cl *adlb.Client, w *mpi.World) error) error {
	cfg := adlb.Config{Servers: 1, Types: 2, NotifyType: 0}
	w, err := mpi.NewWorld(2)
	if err != nil {
		return err
	}
	return w.Run(func(c *mpi.Comm) error {
		if adlb.NewLayout(c.Size(), cfg.Servers).IsServer(c.Rank()) {
			return adlb.Serve(c, cfg)
		}
		cl, err := adlb.NewClient(c, cfg)
		if err != nil {
			return err
		}
		if err := fn(cl, w); err != nil {
			return err
		}
		// Park until NO_MORE_WORK so the server can terminate.
		for {
			_, ok, err := cl.Get(1)
			if err != nil || !ok {
				return err
			}
		}
	})
}

func (l *ladder) probeADLB() {
	err := adlbWorld(func(cl *adlb.Client, w *mpi.World) error {
		n := l.n(20000)
		payload := make([]byte, 64)
		d := l.timed("adlb.Put+GetLeased", func() error {
			for i := 0; i < n; i++ {
				if err := cl.Put(1, 0, adlb.AnyRank, payload); err != nil {
					return err
				}
				if _, _, ok, err := cl.GetLeased(1); err != nil || !ok {
					return fmt.Errorf("leased get: ok=%v err=%v", ok, err)
				}
			}
			return nil
		})
		l.vals["adlb.putget_rtt_us"] = us(d, n)

		d = l.timed("adlb.Create+Store+Retrieve", func() error {
			for i := 0; i < n; i++ {
				id, err := cl.Unique()
				if err != nil {
					return err
				}
				if err := cl.Create(id, adlb.TypeFloat); err != nil {
					return err
				}
				if err := cl.Store(id, adlb.FloatValue(float64(i))); err != nil {
					return err
				}
				if _, found, err := cl.Retrieve(id); err != nil || !found {
					return fmt.Errorf("retrieve: found=%v err=%v", found, err)
				}
			}
			return nil
		})
		l.vals["adlb.store_retrieve_us"] = us(d, n)

		// Scatter then gather 1e5-row chunks, as vunpack and vpack do.
		rows := l.n(100_000)
		var ck chunk.Chunk
		for i := 0; i < rows; i++ {
			ck.AppendFloat(float64(i) * 0.5)
		}
		const rounds = 3
		var scatter, gather time.Duration
		for r := 0; r < rounds; r++ {
			ctr, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.Create(ctr, adlb.TypeContainer); err != nil {
				return err
			}
			scatter += l.timed("adlb.StoreChunk", func() error { return cl.StoreChunk(ctr, ck) })
			pairs, err := cl.Enumerate(ctr)
			if err != nil {
				return err
			}
			ids := make([]int64, len(pairs))
			for i, p := range pairs {
				ids[i] = p.Member
			}
			gather += l.timed("adlb.RetrieveChunk", func() error {
				got, err := cl.RetrieveChunk(ids)
				if err == nil && got.Len() != rows {
					err = fmt.Errorf("gathered %d rows, want %d", got.Len(), rows)
				}
				return err
			})
		}
		l.vals["adlb.scatter_ns_per_elem"] = ns(scatter, rounds*rows)
		l.vals["adlb.gather_ns_per_elem"] = ns(gather, rounds*rows)

		// One blob of the blob_pipeline size through Store and Retrieve.
		data := blob.FromFloat64s(make([]float64, l.sz.BlobElems))
		var store, retrieve time.Duration
		for r := 0; r < rounds; r++ {
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.Create(id, adlb.TypeBlob); err != nil {
				return err
			}
			store += l.timed("adlb.Store blob", func() error {
				return cl.Store(id, adlb.Value{Type: adlb.TypeBlob, Bytes: data.Data, Elem: uint8(data.Elem), Dims: data.Dims})
			})
			retrieve += l.timed("adlb.Retrieve blob", func() error {
				v, found, err := cl.Retrieve(id)
				if err == nil && (!found || len(v.Bytes) != len(data.Data)) {
					err = fmt.Errorf("retrieved %d bytes, want %d", len(v.Bytes), len(data.Data))
				}
				return err
			})
		}
		l.vals["adlb.blob_store_mb_per_s"] = mbps(rounds*len(data.Data), store)
		l.vals["adlb.blob_retrieve_mb_per_s"] = mbps(rounds*len(data.Data), retrieve)

		if gets, hits, _ := w.FramePoolStats(); gets > 0 {
			l.vals["mpi.framepool_hit_ratio"] = float64(hits) / float64(gets)
		}
		return nil
	})
	if err != nil {
		l.fail("adlb", err)
	}
}

// pingPong bounces frames of size bytes between two ranks n times and
// returns the time rank a spent; b echoes.
func (l *ladder) pingPong(name string, a, b *mpi.Comm, size, n int) time.Duration {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			data, _, err := b.Recv(a.Rank(), 1)
			if err != nil {
				done <- err
				return
			}
			err = b.Send(a.Rank(), 2, data)
			b.Release(data)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	buf := make([]byte, size)
	d := l.timed(name, func() (err error) {
		defer func() {
			if err != nil {
				// Unblock the echo side, or waiting for it below hangs.
				a.World().Abort(err)
				b.World().Abort(err)
			}
		}()
		for i := 0; i < n; i++ {
			if err := a.Send(b.Rank(), 1, buf); err != nil {
				return err
			}
			data, _, err := a.Recv(b.Rank(), 2)
			if err != nil {
				return err
			}
			a.Release(data)
		}
		return nil
	})
	if err := <-done; err != nil {
		l.fail(name, err)
	}
	return d
}

func (l *ladder) probeMPI() {
	const small, large = 64, 1 << 20
	nSmall, nLarge := l.n(20000), l.n(200)

	w, err := mpi.NewWorld(2)
	if err != nil {
		l.fail("mpi.inproc", err)
		return
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	d := l.pingPong("mpi.Send+Recv inproc 64B", c0, c1, small, nSmall)
	l.vals["mpi.inproc_rtt_us"] = us(d, nSmall)
	d = l.pingPong("mpi.Send+Recv inproc 1MiB", c0, c1, large, nLarge)
	l.vals["mpi.inproc_mb_per_s"] = mbps(2*large*nLarge, d)

	hw, err := mpi.NewWorld(2)
	if err != nil {
		l.fail("mpi.tcp", err)
		return
	}
	hub, err := hw.ListenTCP(mpi.HubConfig{FirstRank: 1, Slots: 1})
	if err != nil {
		l.fail("mpi.ListenTCP", err)
		return
	}
	defer hub.Close()
	wc, err := mpi.JoinTCP(hub.Addr())
	if err != nil {
		l.fail("mpi.JoinTCP", err)
		return
	}
	defer wc.Close()
	h0, _ := hw.Comm(0)
	r1, err := wc.World().Comm(wc.Rank())
	if err != nil {
		l.fail("mpi.tcp", err)
		return
	}
	d = l.pingPong("mpi.Send+Recv tcp 64B", h0, r1, small, nSmall)
	l.vals["mpi.tcp_rtt_us"] = us(d, nSmall)
	d = l.pingPong("mpi.Send+Recv tcp 1MiB", h0, r1, large, nLarge)
	l.vals["mpi.tcp_mb_per_s"] = mbps(2*large*nLarge, d)
}

func (l *ladder) engine(name string) (lang.Engine, bool) {
	reg, ok := lang.Lookup(name)
	if !ok {
		l.fail("lang."+name, fmt.Errorf("engine not registered"))
		return nil, false
	}
	return reg.New(lang.Host{}), true
}

func (l *ladder) probeLang() {
	evalN := func(eng lang.Engine, c lang.Call, n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				c.Args[0] = lang.Float(1.5 + float64(i))
				if _, err := eng.Eval(c); err != nil {
					return err
				}
			}
			return nil
		}
	}
	light := map[string]string{"python": smallPy, "r": smallR, "julia": smallJl}
	heavy := map[string]string{"python": heavyPy(l.sz.PyLoop), "r": heavyR(l.sz.VecLen), "julia": heavyJl(l.sz.VecLen)}
	var bind time.Duration
	bound := 0
	data := lang.Floats(make([]float64, l.sz.BlobElems))
	for _, name := range []string{"python", "r", "julia"} {
		eng, ok := l.engine(name)
		if !ok {
			continue
		}
		n := l.n(20000)
		c := lang.Call{Expr: light[name], Args: make([]lang.Value, 1), Want: lang.KindFloat}
		_ = evalN(eng, c, 3)()
		d := l.timed("lang.Eval light "+name, evalN(eng, c, n))
		l.vals["lang.eval_us."+name] = us(d, n)

		n = l.n(40)
		c = lang.Call{Code: heavy[name], Expr: "s", Args: make([]lang.Value, 1), Want: lang.KindFloat}
		_ = evalN(eng, c, 2)()
		d = l.timed("lang.Eval heavy "+name, evalN(eng, c, n))
		l.vals["lang.eval_heavy_us."+name] = us(d, n)

		// The blob_pipeline pass-through: bind a blob argument, hand it back.
		n = l.n(10)
		bind += l.timed("lang.Eval blob pass-through "+name, func() error {
			for i := 0; i < n; i++ {
				res, err := eng.Eval(lang.Call{Expr: "argv1", Args: []lang.Value{data}, Want: lang.KindBlob})
				if err != nil {
					return err
				}
				if got := res.AsBlob().Len(); got != 8*l.sz.BlobElems {
					return fmt.Errorf("pass-through returned %d bytes", got)
				}
			}
			return nil
		})
		bound += n * 8 * l.sz.BlobElems
	}
	if bind > 0 {
		l.vals["lang.blob_bind_mb_per_s"] = mbps(bound, bind)
	}
	if eng, ok := l.engine("tcl"); ok {
		n := l.n(20000)
		d := l.timed("lang.Eval light tcl", func() error {
			for i := 0; i < n; i++ {
				if _, err := eng.Eval(lang.Call{Code: "expr {2 * 3 + 1}", Want: lang.KindString}); err != nil {
					return err
				}
			}
			return nil
		})
		l.vals["lang.eval_us.tcl"] = us(d, n)
	}

	// Pool checkout of a resident engine, and the tenant-switch path: a
	// one-engine pool alternating tenants resets on every checkout.
	n := l.n(200_000)
	pool := lang.NewPool(lang.Host{}, 4, nil)
	d := l.timed("lang.Pool.Checkout resident", func() error {
		for i := 0; i < n; i++ {
			if _, err := pool.Checkout("python", "t0"); err != nil {
				return err
			}
		}
		return nil
	})
	l.vals["lang.pool_checkout_us"] = us(d, n)
	tenants := [2]string{"t0", "t1"}
	one := lang.NewPool(lang.Host{}, 1, nil)
	d = l.timed("lang.Pool.Checkout tenant switch", func() error {
		for i := 0; i < n; i++ {
			if _, err := one.Checkout("python", tenants[i&1]); err != nil {
				return err
			}
		}
		return nil
	})
	l.vals["lang.pool_reset_us"] = us(d, n)
}

// BenchmarkInterpFragment's sources.
const (
	fragPy = "\ny = 0\nfor k in range(10):\n    y = y + k * k"
	fragR  = "\nv <- 1:10\ns <- sum(v * v)"
	fragJl = "\ns = 0\nfor k in 1:10\n    s = s + k * k\nend"
)

func (l *ladder) probeInterps() {
	n := l.n(20000)
	probe := func(layer string, eval func() (string, error), want string) {
		run := func(n int) func() error {
			return func() error {
				for i := 0; i < n; i++ {
					out, err := eval()
					if err != nil {
						return err
					}
					if out != want {
						return fmt.Errorf("fragment evaluated to %q, want %q", out, want)
					}
				}
				return nil
			}
		}
		_ = run(3)()
		m0 := mallocs()
		d := l.timed(layer+".EvalFragment", run(n))
		l.vals[layer+".allocs_per_fragment"] = float64(mallocs()-m0) / float64(n)
		l.vals[layer+".fragment_us"] = us(d, n)
	}
	py, r, jl := pylite.New(), rlite.New(), jlite.New()
	probe("pylite", func() (string, error) { return py.EvalFragment(fragPy, "y") }, "285")
	probe("rlite", func() (string, error) { return r.EvalFragment(fragR, "s") }, "385")
	probe("jlite", func() (string, error) { return jl.EvalFragment(fragJl, "s") }, "385")
}

func (l *ladder) probeChunkBlob() {
	rows := l.n(100_000)
	const rounds = 10
	var ck chunk.Chunk
	d := l.timed("chunk.AppendFloat", func() error {
		for r := 0; r < rounds; r++ {
			ck.Reset()
			for i := 0; i < rows; i++ {
				ck.AppendFloat(float64(i))
			}
		}
		return nil
	})
	l.vals["chunk.append_ns_per_row"] = ns(d, rounds*rows)
	d = l.timed("chunk.Reader", func() error {
		for r := 0; r < rounds; r++ {
			var sum float64
			rd := ck.Reader()
			for rd.Next() {
				sum += rd.Float()
			}
			if want := float64(rows-1) * float64(rows) / 2; sum != want {
				return fmt.Errorf("chunk rows sum to %v, want %v", sum, want)
			}
		}
		return nil
	})
	l.vals["chunk.read_ns_per_row"] = ns(d, rounds*rows)

	v := make([]float64, l.sz.BlobElems)
	for i := range v {
		v[i] = float64(i)
	}
	n := l.n(10)
	d = l.timed("blob.FromFloat64s+ToFloat64s", func() error {
		for i := 0; i < n; i++ {
			out, err := blob.ToFloat64s(blob.FromFloat64s(v))
			if err != nil {
				return err
			}
			if out[len(out)-1] != v[len(v)-1] {
				return fmt.Errorf("blob round trip corrupted the last element")
			}
		}
		return nil
	})
	l.vals["blob.pack_mb_per_s"] = mbps(n*8*len(v), d)
}

func (l *ladder) probeServe() {
	srv, err := serve.New(serve.Config{Workers: 2, Servers: 1, Tenants: serveTenants})
	if err != nil {
		l.fail("serve.New", err)
		return
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	req := serve.FragmentRequest{Tenant: "gold", Lang: "python", Expr: smallPy, Want: "float"}
	slot, err := newSlot(req, nil)
	if err != nil {
		l.fail("serve", err)
		return
	}
	direct := func(x float64) error {
		r := req
		r.Args = []serve.WireValue{{Kind: "float", Float: x}}
		res, err := srv.EvalFragment(r)
		if err == nil && res.Value.Float != x*2+1 {
			err = fmt.Errorf("direct fragment returned %v, want %v", res.Value.Float, x*2+1)
		}
		return err
	}
	var body []byte
	overHTTP := func(x float64) error {
		body = slot.body(body, x)
		got, err := postFrag(client, ts.URL+"/api/v1/frag", body)
		if err == nil && got != x*2+1 {
			err = fmt.Errorf("HTTP fragment returned %v, want %v", got, x*2+1)
		}
		return err
	}
	// Each request and its direct-call twin are timed one by one: the
	// medians subtract to the cost of the HTTP edge, and the HTTP sample
	// is long enough to read a 99.9th percentile.
	sample := func(name string, n int, call func(float64) error) []float64 {
		lat := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			sp := l.tr.begin(l.root, name)
			t0 := time.Now()
			err := call(float64(i) + 0.5)
			d := time.Since(t0)
			l.tr.end(sp)
			if err != nil {
				l.fail(name, err)
				return nil
			}
			lat = append(lat, float64(d)/float64(time.Microsecond))
		}
		return lat
	}
	sample("serve.http_frag", 50, overHTTP) // connection, pools, parse caches
	directLat := sample("serve.EvalFragment", l.n(4000), direct)
	httpLat := sample("serve.http_frag", l.n(10200), overHTTP)
	if directLat != nil && httpLat != nil {
		l.vals["serve.frag_direct_us"] = median(directLat)
		l.vals["serve.http_overhead_us"] = median(httpLat) - median(directLat)
		if v, err := percentile(httpLat, 99.9); err == nil {
			l.vals["serve.frag_p999_us"] = v
		} else {
			l.vals["serve.frag_p999_us"], _ = tail(httpLat, 99)
		}
	}

	// The JSON/base64 rendering a blob argument pays at the edge and again
	// inside the warm world.
	v := lang.Floats(make([]float64, l.sz.FragBlobBytes/8))
	n := l.n(300)
	d := l.timed("serve.ToWire+JSON+FromWire", func() error {
		for i := 0; i < n; i++ {
			data, err := json.Marshal(serve.ToWire(v))
			if err != nil {
				return err
			}
			var w serve.WireValue
			if err := json.Unmarshal(data, &w); err != nil {
				return err
			}
			back, err := serve.FromWire(w)
			if err != nil {
				return err
			}
			if back.AsBlob().Len() != l.sz.FragBlobBytes/8*8 {
				return fmt.Errorf("wire round trip returned %d bytes", back.AsBlob().Len())
			}
		}
		return nil
	})
	l.vals["serve.wire_blob_us"] = us(d, n)

	// The program door: one compile, then cache hits.
	const progRuns = 4
	l.timed("serve.RunProgram", func() error {
		for i := 0; i < progRuns; i++ {
			res, err := srv.RunProgram(serve.ProgramRequest{Tenant: "gold", Source: `printf("%i", 6 * 7);`})
			if err != nil {
				return err
			}
			if res.Stdout != "42\n" {
				return fmt.Errorf("program printed %q", res.Stdout)
			}
		}
		return nil
	})
	pc := srv.Stats().ProgramCache
	if pc.Hits+pc.Misses > 0 {
		l.vals["serve.program_cache_hit_ratio"] = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	}
}
