package repro

// Benchmark harness: one benchmark per figure/claim in the paper (see
// CHANGES.md for recorded results). The paper is a systems paper with three architecture figures
// and quantitative claims in prose; each benchmark regenerates the
// measurement behind one of them on the simulated substrate.
//
// Run all:  go test -bench=. -benchmem
// One id:   go test -bench=BenchmarkFig2 -benchmem

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/baseline"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/jlite"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/nativelib"
	"repro/internal/pfs"
	"repro/internal/pkgs"
	"repro/internal/pylite"
	"repro/internal/rlite"
	"repro/internal/shell"
	"repro/internal/stc"
	"repro/internal/swig"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// taskSleep is the simulated leaf-task duration used where tasks must
// have nonzero cost for scaling shapes to be visible. Sleeping tasks
// overlap regardless of host cores, so worker scaling is measurable even
// on a small CI machine.
const taskSleep = 2 * time.Millisecond

// sleepSetup registers bench::spin, a leaf command that sleeps.
func sleepSetup(in *tcl.Interp) error {
	in.RegisterCommand("bench::spin", func(in *tcl.Interp, args []string) (string, error) {
		time.Sleep(taskSleep)
		return "", nil
	})
	return nil
}

// ---------------------------------------------------------------------
// F1 — Fig. 1: implicit dataflow of a Swift foreach loop. Parallel
// pipelines t=f(i); g(t) constructed and drained by the runtime.
// ---------------------------------------------------------------------

func fig1Source(n int) string {
	return fmt.Sprintf(`
		(int o) f(int i) { o = i * 3; }
		(int o) g(int t) { o = t %% 2; }
		foreach i in [0:%d] {
			int t = f(i);
			if (g(t) == 0) { trace(t); }
		}`, n-1)
}

func BenchmarkFig1PipelineDataflow(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("pipelines=%d", n), func(b *testing.B) {
			src := fig1Source(n)
			compiled, err := stc.Compile(src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.RunCompiled(compiled, core.Config{Engines: 1, Workers: 4, Servers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if res.ControlTasks == 0 {
					b.Fatal("no dataflow executed")
				}
			}
			b.ReportMetric(float64(n)/float64(b.Elapsed().Seconds())*float64(b.N), "pipelines/s")
		})
	}
}

func TestFig1PipelineShape(t *testing.T) {
	// The dataflow must produce exactly the g(t)==0 lines of the paper's
	// example, independent of scheduling.
	res, err := core.Run(fig1Source(10), core.Config{Engines: 1, Workers: 4, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := strings.Count(res.Stdout, "trace:")
	if count != 5 { // i*3 even for i = 0,2,4,6,8
		t.Fatalf("got %d even results, want 5\n%s", count, res.Stdout)
	}
}

// ---------------------------------------------------------------------
// F2 — Fig. 2: runtime architecture. Task throughput as workers are
// added (load balancing), and work stealing between servers.
// ---------------------------------------------------------------------

func BenchmarkFig2WorkerScaling(b *testing.B) {
	const tasks = 64
	src := fmt.Sprintf(`
		(string o) unit(int i)
			"benchpkg" "1.0"
			[ "bench::spin\nset <<o>> done-<<i>>" ];
		foreach i in [0:%d] {
			string s = unit(i);
		}`, tasks-1)
	compiled, err := stc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunCompiled(compiled, core.Config{
					Engines: 1, Workers: workers, Servers: 1,
					TclSetup: sleepSetup,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.LeafTasks != tasks {
					b.Fatalf("leaf tasks = %d", res.LeafTasks)
				}
			}
			perRun := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(tasks)/perRun, "tasks/s")
		})
	}
}

func BenchmarkFig2WorkStealing(b *testing.B) {
	// All work enters via one engine whose clients park at server 0;
	// with multiple servers, only stealing feeds the rest of the machine.
	const tasks = 48
	src := fmt.Sprintf(`
		(string o) unit(int i)
			"benchpkg" "1.0"
			[ "bench::spin\nset <<o>> ok" ];
		foreach i in [0:%d] {
			string s = unit(i);
		}`, tasks-1)
	compiled, err := stc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"steal=on", "steal=off"} {
		b.Run(mode, func(b *testing.B) {
			var stolen int64
			for i := 0; i < b.N; i++ {
				stats := &adlb.Stats{}
				res, err := core.RunCompiled(compiled, core.Config{
					Engines: 1, Workers: 8, Servers: 2,
					TclSetup:     sleepSetup,
					Stats:        stats,
					DisableSteal: mode == "steal=off",
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.LeafTasks != tasks {
					b.Fatalf("leaf tasks = %d", res.LeafTasks)
				}
				stolen += stats.ItemsStolen.Load()
			}
			b.ReportMetric(float64(stolen)/float64(b.N), "items-stolen/run")
		})
	}
}

// ---------------------------------------------------------------------
// F3 — Fig. 3: the SWIG binding pipeline. Native call path overhead:
// direct Go call vs SWIG-wrapped Tcl command vs full Swift leaf task.
// ---------------------------------------------------------------------

func BenchmarkFig3NativeCallPath(b *testing.B) {
	lib := nativelib.NewSimLibrary()
	kernel, err := lib.Resolve("sim_waveform")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kernel([]any{int64(i % 100), 0.01}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("swig-tcl-wrapper", func(b *testing.B) {
		in := tcl.New()
		if _, err := swig.Bind(in, lib); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.Eval("sim_waveform " + strconv.Itoa(i%100) + " 0.01"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("swift-leaf-task", func(b *testing.B) {
		src := `
			(float o) wave(int i)
				"libsim" "1.0"
				[ "set <<o>> [ sim_waveform <<i>> 0.01 ]" ];
			foreach i in [0:31] {
				float w = wave(i);
			}`
		compiled, err := stc.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunCompiled(compiled, core.Config{
				Engines: 1, Workers: 4, Servers: 1,
				NativeLibs: []*nativelib.Library{lib},
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(32, "native-calls/op")
	})
}

func TestFig3BuildPipeline(t *testing.T) {
	// Header -> SWIG -> Tcl command -> callable, plus the generated
	// wrapper artefact (the wrap.c analogue).
	lib := nativelib.NewSimLibrary()
	in := tcl.New()
	decls, err := swig.Bind(in, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no declarations bound")
	}
	wrapper, err := swig.GenerateWrapper(lib)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wrapper, "package provide libsim") {
		t.Fatal("wrapper artefact incomplete")
	}
	out, err := in.Eval("sim_version")
	if err != nil || !strings.Contains(out, "libsim") {
		t.Fatalf("bound call failed: %q %v", out, err)
	}
}

// ---------------------------------------------------------------------
// C1 — §III-C: embedded interpreters vs fork/exec of an external
// interpreter. The external path pays process-spawn and filesystem
// costs per task; the embedded path pays neither.
// ---------------------------------------------------------------------

func BenchmarkC1EmbeddedVsExternal(b *testing.B) {
	const tasks = 16
	embedded := fmt.Sprintf(`
		foreach i in [0:%d] {
			string s = python("y = 21 * 2", "y");
		}`, tasks-1)
	external := fmt.Sprintf(`
		foreach i in [0:%d] {
			string s = sh("python-exe", "-c", "21*2");
		}`, tasks-1)
	embCompiled, err := stc.Compile(embedded)
	if err != nil {
		b.Fatal(err)
	}
	extCompiled, err := stc.Compile(external)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("embedded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunCompiled(embCompiled, core.Config{Engines: 1, Workers: 4, Servers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Evals["python"] != tasks {
				b.Fatalf("evals = %d", res.Evals["python"])
			}
		}
	})
	b.Run("external-exec", func(b *testing.B) {
		// The external interpreter: a fresh process per task that
		// initialises a new interpreter, evaluates, and exits — plus the
		// fork/exec cost and loading the binary from the filesystem.
		pythonExe := func(sys *shell.System, argv []string, stdin string) (string, error) {
			h := pylite.New()
			if len(argv) >= 3 && argv[1] == "-c" {
				v, err := h.EvalExpr(argv[2])
				if err != nil {
					return "", err
				}
				return pylite.Str(v), nil
			}
			return "", fmt.Errorf("python-exe: usage: python-exe -c expr")
		}
		for i := 0; i < b.N; i++ {
			fs := pfs.New(pfs.DefaultConfig())
			fs.Provision("/bin/python-exe", make([]byte, 1<<20))
			res, err := core.RunCompiled(extCompiled, core.Config{
				Engines: 1, Workers: 4, Servers: 1,
				FS:           fs,
				SpawnCost:    2 * time.Millisecond,
				SleepOnSpawn: true,
				Programs:     map[string]shell.Program{"python-exe": pythonExe},
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Spawns != tasks {
				b.Fatalf("spawns = %d", res.Spawns)
			}
		}
	})
}

func TestC1ExternalImpossibleOnBGQ(t *testing.T) {
	// On the BG/Q there is no comparison to make: exec is impossible and
	// only the embedded path functions — the paper's §III-C motivation.
	_, err := core.Run(`string s = sh("python-exe", "-c", "1");`, core.Config{
		ShellMode: 1, // shell.ModeBGQ
	})
	if err == nil || !strings.Contains(err.Error(), "not supported on this system") {
		t.Fatalf("err = %v", err)
	}
	res, err := core.Run(`
		string s = python("y = 1", "y");
		printf("%s", s);`, core.Config{ShellMode: 1})
	if err != nil || !strings.Contains(res.Stdout, "1") {
		t.Fatalf("embedded on BGQ: %v %q", err, res.Stdout)
	}
}

// ---------------------------------------------------------------------
// C2 — §III-C: retain vs reinitialise interpreter state. Reinit pays
// the interpreter initialisation cost on every task.
// ---------------------------------------------------------------------

func BenchmarkC2RetainVsReinit(b *testing.B) {
	const initCost = 500 * time.Microsecond
	const evals = 64
	for _, langName := range []string{"python", "r"} {
		for _, policy := range []string{"retain", "reinit"} {
			b.Run(langName+"/"+policy, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					switch langName {
					case "python":
						h := pylite.New()
						h.InitCost = func() { time.Sleep(initCost) }
						for k := 0; k < evals; k++ {
							if _, err := h.EvalFragment("v = 2 + 2", "v"); err != nil {
								b.Fatal(err)
							}
							if policy == "reinit" {
								h.Reset()
							}
						}
					case "r":
						h := rlite.New()
						h.InitCost = func() { time.Sleep(initCost) }
						for k := 0; k < evals; k++ {
							if _, err := h.EvalFragment("v <- 2 + 2", "v"); err != nil {
								b.Fatal(err)
							}
							if policy == "reinit" {
								h.Reset()
							}
						}
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// C3 — §I/§IV: many small script files vs one static package on the
// parallel filesystem. Metadata operations dominate at scale.
// ---------------------------------------------------------------------

func BenchmarkC3ManySmallFiles(b *testing.B) {
	const nFiles = 200
	const nRanks = 64
	content := strings.Repeat("proc helper {} { return 1 }\n", 8)
	for _, mode := range []string{"small-files", "static-package"} {
		b.Run(mode, func(b *testing.B) {
			var virtualTotal time.Duration
			var metaOps int64
			for i := 0; i < b.N; i++ {
				fs := pfs.New(pfs.DefaultConfig())
				bundle := pkgs.NewBundle()
				for f := 0; f < nFiles; f++ {
					path := fmt.Sprintf("/app/lib/mod%03d.tcl", f)
					fs.Provision(path, []byte(content))
					bundle.AddString(path, content)
				}
				pkgs.Install(fs, "/app/bundle.spkg", bundle)
				fs.ResetStats()
				// Every rank loads the application scripts at startup.
				for r := 0; r < nRanks; r++ {
					if mode == "small-files" {
						for f := 0; f < nFiles; f++ {
							if _, err := fs.ReadFile(fmt.Sprintf("/app/lib/mod%03d.tcl", f)); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						if _, err := pkgs.Load(fs, "/app/bundle.spkg"); err != nil {
							b.Fatal(err)
						}
					}
				}
				virtualTotal += fs.VirtualElapsed()
				metaOps += fs.MetaOps()
			}
			b.ReportMetric(float64(virtualTotal.Milliseconds())/float64(b.N), "virtual-ms/startup")
			b.ReportMetric(float64(metaOps)/float64(b.N), "metadata-ops/startup")
		})
	}
}

func TestC3StaticPackageWins(t *testing.T) {
	const nFiles = 100
	const nRanks = 16
	fs := pfs.New(pfs.DefaultConfig())
	bundle := pkgs.NewBundle()
	content := []byte(strings.Repeat("proc p {} {}\n", 4))
	for f := 0; f < nFiles; f++ {
		path := fmt.Sprintf("/lib/m%d.tcl", f)
		fs.Provision(path, content)
		bundle.Add(path, content)
	}
	pkgs.Install(fs, "/b.spkg", bundle)
	fs.ResetStats()
	for r := 0; r < nRanks; r++ {
		for f := 0; f < nFiles; f++ {
			fs.ReadFile(fmt.Sprintf("/lib/m%d.tcl", f))
		}
	}
	smallOps := fs.MetaOps()
	smallTime := fs.VirtualElapsed()
	fs.ResetStats()
	for r := 0; r < nRanks; r++ {
		if _, err := pkgs.Load(fs, "/b.spkg"); err != nil {
			t.Fatal(err)
		}
	}
	bundleOps := fs.MetaOps()
	bundleTime := fs.VirtualElapsed()
	if bundleOps*int64(nFiles) != smallOps {
		t.Fatalf("metadata ratio: small=%d bundle=%d (want %dx)", smallOps, bundleOps, nFiles)
	}
	if bundleTime*10 >= smallTime {
		t.Fatalf("static package should win by >10x: small=%v bundle=%v", smallTime, bundleTime)
	}
}

// ---------------------------------------------------------------------
// C4 — §I: the Swift/T model vs the traditional techniques — a
// hand-written MPI master/worker and a scripting-language MPI binding.
// ---------------------------------------------------------------------

func BenchmarkC4VsHandMPI(b *testing.B) {
	const tasks = 32
	b.Run("swiftt", func(b *testing.B) {
		src := fmt.Sprintf(`
			(string o) unit(int i)
				"benchpkg" "1.0"
				[ "bench::spin\nset <<o>> ok" ];
			foreach i in [0:%d] {
				string s = unit(i);
			}`, tasks-1)
		compiled, err := stc.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunCompiled(compiled, core.Config{
				Engines: 1, Workers: 8, Servers: 1, TclSetup: sleepSetup,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tasks), "tasks/op")
	})
	b.Run("hand-mpi", func(b *testing.B) {
		jobs := make([]baseline.Task, tasks)
		for i := range jobs {
			jobs[i] = baseline.Task{ID: i}
		}
		for i := 0; i < b.N; i++ {
			w, _ := mpi.NewWorld(9) // 1 master + 8 workers, same worker count
			err := w.Run(func(c *mpi.Comm) error {
				_, err := baseline.MasterWorker(c, jobs, func(tk baseline.Task) ([]byte, error) {
					time.Sleep(taskSleep)
					return []byte("ok"), nil
				})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tasks), "tasks/op")
	})
	b.Run("pympi", func(b *testing.B) {
		// Master/worker written inside Python over MPI bindings; the
		// sleep models the same task cost.
		script := fmt.Sprintf(`
rank = mpi_rank()
size = mpi_size()
n = %d
if rank == 0:
    done = 0
    while done < n:
        got = mpi_recv()
        done = done + 1
    result = str(done)
else:
    i = rank - 1
    while i < n:
        sleep_task()
        mpi_send(0, str(i))
        i = i + size - 1
    result = "worker"
`, tasks)
		for i := 0; i < b.N; i++ {
			w, _ := mpi.NewWorld(9)
			err := w.Run(func(c *mpi.Comm) error {
				py := pylite.New()
				py.SetGlobal("sleep_task", pylite.Builtin(
					func(in *pylite.Interp, args []pylite.Value) (pylite.Value, error) {
						time.Sleep(taskSleep)
						return nil, nil
					}))
				bindPyMPI(py, c)
				return py.Exec(script)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tasks), "tasks/op")
	})
}

// bindPyMPI wires minimal MPI bindings for the C4 pympi benchmark.
func bindPyMPI(py *pylite.Interp, c *mpi.Comm) {
	py.SetGlobal("mpi_rank", pylite.Builtin(func(in *pylite.Interp, args []pylite.Value) (pylite.Value, error) {
		return int64(c.Rank()), nil
	}))
	py.SetGlobal("mpi_size", pylite.Builtin(func(in *pylite.Interp, args []pylite.Value) (pylite.Value, error) {
		return int64(c.Size()), nil
	}))
	py.SetGlobal("mpi_send", pylite.Builtin(func(in *pylite.Interp, args []pylite.Value) (pylite.Value, error) {
		dest, _ := args[0].(int64)
		return nil, c.Send(int(dest), 20, []byte(pylite.Str(args[1])))
	}))
	py.SetGlobal("mpi_recv", pylite.Builtin(func(in *pylite.Interp, args []pylite.Value) (pylite.Value, error) {
		data, _, err := c.Recv(mpi.AnySource, 20)
		return string(data), err
	}))
}

// ---------------------------------------------------------------------
// T1 — interpreter throughput: repeated evaluation of the same script,
// the shape of every Turbine rule action and loop body. The compile-once
// pipeline (parse cache, expr AST cache, literal words) must make the
// steady state parse-free.
// ---------------------------------------------------------------------

func BenchmarkTclEval(b *testing.B) {
	b.Run("loop-body", func(b *testing.B) {
		// A control-fragment-shaped script: a loop whose body and
		// condition are re-evaluated every iteration.
		in := tcl.New()
		script := `
			set s 0
			for {set i 0} {$i < 100} {incr i} {
				set s [expr {$s + $i * $i}]
			}
			set s`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := in.Eval(script)
			if err != nil {
				b.Fatal(err)
			}
			if out != "328350" {
				b.Fatalf("out = %q", out)
			}
		}
		b.ReportMetric(100*float64(b.N)/b.Elapsed().Seconds(), "iters/s")
	})
	b.Run("proc-call", func(b *testing.B) {
		// Repeated proc invocation: the body must be compiled once at
		// first call, not re-parsed per call.
		in := tcl.New()
		if _, err := in.Eval(`proc work {n} {
			set acc 0
			foreach x {1 2 3 4 5 6 7 8} {
				set acc [expr {$acc + $x * $n}]
			}
			return $acc
		}`); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := in.Eval("work 3")
			if err != nil {
				b.Fatal(err)
			}
			if out != "108" {
				b.Fatalf("out = %q", out)
			}
		}
	})
	b.Run("expr-cond", func(b *testing.B) {
		// The while-condition shape: one expr string evaluated under
		// changing variable state.
		in := tcl.New()
		if _, err := in.Eval("set i 0; set n 1000000000"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := in.EvalExprBool("$i < $n && ($i % 2) == 0")
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("condition false")
			}
		}
	})
}

// ---------------------------------------------------------------------
// T2 — repeated interlanguage fragments, the §III-C hot path: ensemble
// runs evaluate the same python()/r() code string once per task, so
// steady-state fragment evaluation must be parse-free (the embedded
// interpreters memoize source -> parsed program, like the Tcl layer).
// ---------------------------------------------------------------------

func BenchmarkInterpFragment(b *testing.B) {
	const pyCode = `
y = 0
for k in range(10):
    y = y + k * k`
	const rCode = `
v <- 1:10
s <- sum(v * v)`
	const jlCode = `
s = 0
for k in 1:10
    s = s + k * k
end`
	b.Run("python", func(b *testing.B) {
		h := pylite.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := h.EvalFragment(pyCode, "y")
			if err != nil {
				b.Fatal(err)
			}
			if out != "285" {
				b.Fatalf("out = %q", out)
			}
		}
	})
	b.Run("r", func(b *testing.B) {
		h := rlite.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := h.EvalFragment(rCode, "s")
			if err != nil {
				b.Fatal(err)
			}
			if out != "385" {
				b.Fatalf("out = %q", out)
			}
		}
	})
	b.Run("julia", func(b *testing.B) {
		h := jlite.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := h.EvalFragment(jlCode, "s")
			if err != nil {
				b.Fatal(err)
			}
			if out != "385" {
				b.Fatalf("out = %q", out)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Typed fragment arguments (Engine v2): a bulk float vector reaching an
// engine as a typed blob argument (pre-bound as argv1, zero-copy Vec
// view) versus the pre-redesign route of rendering the vector into the
// fragment source as a decimal list literal and re-parsing it. Each
// iteration perturbs the data, as distinct ensemble tasks would, so the
// string path pays its real per-task render+parse cost.
// ---------------------------------------------------------------------

func BenchmarkTypedFragment(b *testing.B) {
	const n = 100_000
	data := make([]float64, n)
	for i := range data {
		data[i] = 0.5 * float64(i)
	}
	reg, ok := lang.Lookup("python")
	if !ok {
		b.Fatal("python not registered")
	}
	b.Run("typed-blob-arg", func(b *testing.B) {
		eng := reg.New(lang.Host{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data[i%n] = float64(i)
			res, err := eng.Eval(lang.Call{
				Code: "", Expr: "sum(argv1)",
				Args: []lang.Value{lang.Floats(data)},
				Want: lang.KindFloat,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.AsFloat(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("string-rendered", func(b *testing.B) {
		eng := reg.New(lang.Host{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data[i%n] = float64(i)
			var src strings.Builder
			src.WriteString("v = [")
			for j, x := range data {
				if j > 0 {
					src.WriteByte(',')
				}
				src.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			}
			src.WriteString("]")
			res, err := eng.Eval(lang.Call{
				Code: src.String(), Expr: "sum(v)",
				Want: lang.KindFloat,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.AsFloat(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Container pack (vpack) data movement: gathering a 1e4-element array's
// members off the data store as one chunk RPC per owning server versus
// one Retrieve RPC per element — the traffic shape behind vpack and the
// reason the container<->vector bridge is viable at array scale.
// ---------------------------------------------------------------------

func BenchmarkContainerPack(b *testing.B) {
	const n = 10_000
	for _, mode := range []string{"batched", "per-element"} {
		b.Run(mode, func(b *testing.B) {
			cfg := adlb.Config{Servers: 1, Types: 2, NotifyType: 0}
			w, err := mpi.NewWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			err = w.Run(func(c *mpi.Comm) error {
				l := adlb.NewLayout(c.Size(), cfg.Servers)
				if l.IsServer(c.Rank()) {
					return adlb.Serve(c, cfg)
				}
				cl, err := adlb.NewClient(c, cfg)
				if err != nil {
					return err
				}
				// Setup: one array's worth of closed float TDs, each made
				// by its first store as the runtime makes them.
				ids := make([]int64, n)
				for i := range ids {
					id, err := cl.Unique()
					if err != nil {
						return err
					}
					if err := cl.Store(id, adlb.FloatValue(float64(i)*0.5)); err != nil {
						return err
					}
					ids[i] = id
				}
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					if mode == "batched" {
						ck, err := cl.RetrieveChunk(ids)
						if err != nil {
							return err
						}
						if ck.Len() != n {
							return fmt.Errorf("gathered %d rows, want %d", ck.Len(), n)
						}
					} else {
						for _, id := range ids {
							v, found, err := cl.Retrieve(id)
							if err != nil {
								return err
							}
							if !found || v.Type != adlb.TypeFloat {
								return fmt.Errorf("id %d: found=%v type=%v", id, found, v.Type)
							}
						}
					}
				}
				b.StopTimer()
				// Park until NO_MORE_WORK so the server can terminate.
				for {
					_, ok, err := cl.Get(1)
					if err != nil || !ok {
						return err
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(n, "elements/op")
		})
	}
}

// ---------------------------------------------------------------------
// C5 — §II-B: "evaluate Swift semantics in a distributed manner (no
// bottleneck)": adding control ranks (engines/servers) must not slow a
// fixed workload, and relieves saturation under control-heavy load.
// ---------------------------------------------------------------------

func BenchmarkC5ControlScaling(b *testing.B) {
	const tasks = 256
	src := fmt.Sprintf(`
		(int o) fast(int i) { o = i + 1; }
		foreach i in [0:%d] {
			int v = fast(i);
		}`, tasks-1)
	compiled, err := stc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct{ engines, servers int }{
		{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2},
	} {
		b.Run(fmt.Sprintf("engines=%d/servers=%d", shape.engines, shape.servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunCompiled(compiled, core.Config{
					Engines: shape.engines, Workers: 4, Servers: shape.servers,
				}); err != nil {
					b.Fatal(err)
				}
			}
			perRun := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(tasks)/perRun, "control-tasks/s")
		})
	}
}

// ---------------------------------------------------------------------
// C6 — §III-B: blob marshalling throughput through the blobutils path.
// ---------------------------------------------------------------------

func BenchmarkC6BlobMarshal(b *testing.B) {
	for _, kb := range []int{1, 64, 1024, 16384} {
		n := kb * 1024 / 8
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i)
		}
		b.Run(fmt.Sprintf("size=%dKB", kb), func(b *testing.B) {
			b.SetBytes(int64(kb * 1024))
			for i := 0; i < b.N; i++ {
				bl := blob.FromFloat64s(data)
				out, err := blob.ToFloat64s(bl)
				if err != nil {
					b.Fatal(err)
				}
				if out[n-1] != data[n-1] {
					b.Fatal("corrupted")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Whole-system smoke benchmark: the interlanguage ensemble end to end.
// ---------------------------------------------------------------------

func BenchmarkEndToEndInterlanguage(b *testing.B) {
	src := `
		(float o) wave(int i)
			"libsim" "1.0"
			[ "set <<o>> [ sim_waveform <<i>> 0.1 ]" ];
		foreach i in [0:7] {
			float w = wave(i);
			string p = python("y = 1 + 1", "y");
			string s = r("v <- 1:3", "sum(v)");
		}`
	compiled, err := stc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	lib := nativelib.NewSimLibrary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunCompiled(compiled, core.Config{
			Engines: 1, Workers: 4, Servers: 1,
			NativeLibs: []*nativelib.Library{lib},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Evals["python"] != 8 || res.Evals["r"] != 8 {
			b.Fatalf("evals: py=%d r=%d", res.Evals["python"], res.Evals["r"])
		}
	}
}

// ---------------------------------------------------------------------
// Gather/scatter at array scale: a 1e6-element vpack -> engine ->
// vunpack round trip. The data-plane shape behind the container<->vector
// bridge at its largest: gather every member of a million-element
// container, hand the packed vector to an embedded engine as a zero-copy
// view, and scatter the result into a fresh container. allocs/op is the
// headline metric (see alloc_budget.txt and the CI gate); run with
// -benchtime=1x — each iteration scatters a fresh million-member
// container on the server, so long benchtimes grow server memory.
// ---------------------------------------------------------------------

func BenchmarkGatherScatter1e6(b *testing.B) {
	const n = 1_000_000
	cfg := adlb.Config{Servers: 1, Types: 2, NotifyType: 0}
	w, err := mpi.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		l := adlb.NewLayout(c.Size(), cfg.Servers)
		if l.IsServer(c.Rank()) {
			return adlb.Serve(c, cfg)
		}
		cl, err := adlb.NewClient(c, cfg)
		if err != nil {
			return err
		}
		// Setup: a container with n closed float members, scattered in
		// one batched RPC, plus its member ids in subscript order.
		src, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(src, adlb.TypeContainer); err != nil {
			return err
		}
		var seed chunk.Chunk
		for i := 0; i < n; i++ {
			seed.AppendFloat(float64(i) * 0.5)
		}
		if err := cl.StoreChunk(src, seed); err != nil {
			return err
		}
		pairs, err := cl.Enumerate(src)
		if err != nil {
			return err
		}
		if len(pairs) != n {
			return fmt.Errorf("enumerated %d members, want %d", len(pairs), n)
		}
		ids := make([]int64, n)
		for i, p := range pairs {
			ids[i] = p.Member
		}
		reg, ok := lang.Lookup("python")
		if !ok {
			return fmt.Errorf("python engine not registered")
		}
		eng := reg.New(lang.Host{})
		// One kind column serves every scatter: StoreChunk reads it only
		// while encoding the request.
		kinds := make([]byte, n)
		for i := range kinds {
			kinds[i] = chunk.KindFloat
		}
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			// Gather (the vpack path): the members arrive as one columnar
			// chunk whose Num column IS the packed float payload, aliasing
			// the pooled response frame — no per-element boxing or copy.
			ck, err := cl.RetrieveChunk(ids)
			if err != nil {
				return err
			}
			if kind, ok := ck.AllKind(); !ok || kind != chunk.KindFloat {
				return fmt.Errorf("gathered chunk is not homogeneous float")
			}
			bl := blob.Blob{Data: ck.Num, Elem: blob.ElemF64, Dims: []int{n}}
			// Engine leg: the blob crosses into the engine as a
			// zero-copy Vec view and back out.
			res, err := eng.Eval(lang.Call{
				Expr: "argv1", Args: []lang.Value{lang.BlobOf(bl)},
				Want: lang.KindBlob,
			})
			if err != nil {
				return err
			}
			out := res.AsBlob()
			// Scatter (the vunpack path): the blob payload becomes the
			// store chunk's Num column verbatim -> fresh container.
			dst, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.Create(dst, adlb.TypeContainer); err != nil {
				return err
			}
			if err := cl.StoreChunk(dst, chunk.Chunk{Kinds: kinds, Num: out.Data}); err != nil {
				return err
			}
		}
		b.StopTimer()
		// Park until NO_MORE_WORK so the server can terminate.
		for {
			_, ok, err := cl.Get(1)
			if err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(n, "elements/op")
}

// ---------------------------------------------------------------------
// The bridge at the Swift level: vunpack -> vpack -> r -> vunpack ->
// vpack -> sum at n = 8000 through core.RunCompiled. The two benchmarks
// above drive the ADLB chunk plane directly and so never saw what wraps
// it — the engine waiting on every member before the gather, and the
// prelude handling the enumeration. data-ops/op is the number to watch:
// it is a count, it repeats exactly, and it does not grow with n.
// ---------------------------------------------------------------------

func BenchmarkVectorBridge(b *testing.B) {
	const n = 8000
	compiled, err := stc.Compile(fmt.Sprintf(`
		blob b0 = python("v = []\nfor k in range(%d):\n    v.append(1.5 + k * 0.25)", "v");
		float x0[] = vunpack(b0);
		blob b1 = vpack(x0);
		blob b2 = r("", "argv1 + 0.25", b1);
		float x1[] = vunpack(b2);
		blob b3 = vpack(x1);
		float s = julia("", "sum(argv1)", b3);
		printf("sum=%%.17g", s);
	`, n))
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1.5 + float64(k)*0.25 + 0.25
	}
	want := fmt.Sprintf("sum=%.17g", sum)
	var dataOps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunCompiled(compiled, core.Config{Engines: 1, Workers: 2, Servers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(res.Stdout, want) {
			b.Fatalf("stdout = %q, want %s", res.Stdout, want)
		}
		dataOps += res.ADLB.DataOps
	}
	// Each run moves n members four times: two scatters, two gathers.
	b.ReportMetric(float64(4*n*b.N)/b.Elapsed().Seconds(), "members/s")
	b.ReportMetric(float64(dataOps)/float64(b.N), "data-ops/op")
}

// TestGatherScatterAllocBudget is the CI allocation gate for the hot
// data path: it runs BenchmarkGatherScatter1e6 once and fails if
// allocs/op exceeds the budget committed in alloc_budget.txt. Gated
// behind ALLOC_BUDGET_GATE because the measurement takes ~30s and only
// means something as a deliberate check, not inside every `go test`.
func TestGatherScatterAllocBudget(t *testing.T) {
	if os.Getenv("ALLOC_BUDGET_GATE") == "" {
		t.Skip("set ALLOC_BUDGET_GATE=1 to enforce the allocs/op budget")
	}
	data, err := os.ReadFile("alloc_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(-1)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if budget, err = strconv.ParseInt(line, 10, 64); err != nil {
			t.Fatalf("alloc_budget.txt: bad budget line %q: %v", line, err)
		}
		break
	}
	if budget < 0 {
		t.Fatal("alloc_budget.txt contains no budget value")
	}
	r := testing.Benchmark(BenchmarkGatherScatter1e6)
	if got := r.AllocsPerOp(); got > budget {
		t.Fatalf("gather/scatter allocates %d allocs/op, budget is %d: the hot data path regressed", got, budget)
	} else {
		t.Logf("gather/scatter: %d allocs/op within budget %d", got, budget)
	}
}

// Guard: turbine package is linked for the stats types used above.
var _ = turbine.TypeWork
