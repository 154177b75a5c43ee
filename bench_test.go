package repro

// The paper-claim ledger. The paper argues in prose and three
// architecture figures; each row below is one of those claims, the test
// that asserts its shape, and the benchmark beside it that measures it.
// A test asserts a count or a virtual-clock figure, so it repeats from
// run to run; the one exception is Fig2's scaling half, a sleep-overlap
// ratio with a ≥ 3× margin. Timings are the benchmarks' job (and
// bench/, swiftbench, holds the end-to-end and per-layer numbers).
//
//	Row   Section  Claim                                       Test: what it asserts
//	Fig1  §II-A    a foreach of t=f(i); g(t) runs as implicit   TestFig1PipelineShape: exactly the 5 g(t)==0 traces
//	               dataflow pipelines
//	Fig2  §II-B    ADLB servers balance load and steal work;    TestFig2LoadBalancing: 48 leaves on 2 servers steal
//	               adding workers adds throughput               (ItemsStolen > 0; 0 with DisableSteal); 64 × 2 ms
//	                                                            leaves on 16 workers take ≤ ⅓ of 1 worker's wall
//	Fig3  §III-B   C header → SWIG → Tcl command → Swift leaf   TestFig3BuildPipeline: bound call, wrapper artefact,
//	                                                            and a Swift sim_waveform leaf bit-equal to the kernel
//	C1    §III-C   an external interpreter costs a process      TestC1ExternalImpossibleOnBGQ: sh() fails on BG/Q;
//	               and a filesystem op per task, and BG/Q       external: 16 spawns, 16 /bin/python-exe metadata ops;
//	               cannot launch one at all                     embedded: 0 spawns, 16 python evals
//	C2    §III-C   reinitialising an interpreter pays its       TestC2RetainVsReinit: pylite and rlite pay 1 init for
//	               init per task; retaining pays it once        64 evals retained, 64 reinitialised (the Policy half
//	                                                            through the runtime: core.TestRetainVsReinitSemantics)
//	C3    §I/§IV   one static package beats many small files    TestC3StaticPackageWins: 100× fewer metadata ops,
//	               on a parallel filesystem                     > 10× less virtual time (through the runtime:
//	                                                            core.TestBundleAndPackageRequire)
//	C4    §I       Swift/T replaces hand-written MPI            TestC4EachTaskOnce: 32 tasks, each once, under Swift,
//	               master/worker and language MPI bindings      baseline.MasterWorker and baseline.RunPyMPI
//	C5    §II-B    Swift semantics evaluate distributed, with   TestC5ControlScaling: identical stdout and leaf count
//	               no central bottleneck                        at 5 (engines, servers) shapes
//	C6    §III-B   blobs carry bulk data across the native      TestC6BlobMarshal: bit-exact float64 round trip; the
//	               boundary                                     same allocs at 1 KB and 16 MB
//	—     §III-B   Fortran through FortWrap                     not reproduced as runtime code: FortWrap is a
//	                                                            build-time source translator (like SLIRP's module
//	                                                            generator); the runtime only ever sees the C header
//	                                                            SWIG consumes, which Fig3 covers
//
// Run the ledger: go test -count=2 -v -run 'TestFig|TestC[1-6]' .
// Run the benchmarks: go test -bench=. -run=NONE .

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/baseline"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
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

// unitSource is n independent template leaf tasks, each running the Tcl
// action before it sets its output.
func unitSource(n int, action string) string {
	return fmt.Sprintf(`
		(string o) unit(int i)
			"benchpkg" "1.0"
			[ "%sset <<o>> ok" ];
		foreach i in [0:%d] {
			string s = unit(i);
		}`, action, n-1)
}

func mustCompile(tb testing.TB, src string) *stc.Output {
	tb.Helper()
	compiled, err := stc.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	return compiled
}

// ---------------------------------------------------------------------
// Fig1 — §II-A: implicit dataflow of a Swift foreach loop. Parallel
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
			compiled := mustCompile(b, fig1Source(n))
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
// Fig2 — §II-B: runtime architecture. Task throughput as workers are
// added (load balancing), and work stealing between servers.
// ---------------------------------------------------------------------

// runSpin runs tasks sleeping leaves on workers and servers and returns
// the stolen-item count and the wall time.
func runSpin(tb testing.TB, compiled *stc.Output, tasks, workers, servers int, noSteal bool) (int64, time.Duration) {
	tb.Helper()
	stats := &adlb.Stats{}
	start := time.Now()
	res, err := core.RunCompiled(compiled, core.Config{
		Engines: 1, Workers: workers, Servers: servers,
		TclSetup:     sleepSetup,
		Stats:        stats,
		DisableSteal: noSteal,
	})
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if res.LeafTasks != int64(tasks) {
		tb.Fatalf("leaf tasks = %d, want %d", res.LeafTasks, tasks)
	}
	return stats.ItemsStolen.Load(), elapsed
}

func BenchmarkFig2WorkerScaling(b *testing.B) {
	const tasks = 64
	compiled := mustCompile(b, unitSource(tasks, `bench::spin\n`))
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runSpin(b, compiled, tasks, workers, 1, false)
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
	compiled := mustCompile(b, unitSource(tasks, `bench::spin\n`))
	for _, mode := range []string{"steal=on", "steal=off"} {
		b.Run(mode, func(b *testing.B) {
			var stolen int64
			for i := 0; i < b.N; i++ {
				n, _ := runSpin(b, compiled, tasks, 8, 2, mode == "steal=off")
				stolen += n
			}
			b.ReportMetric(float64(stolen)/float64(b.N), "items-stolen/run")
		})
	}
}

func TestFig2LoadBalancing(t *testing.T) {
	t.Run("stealing", func(t *testing.T) {
		// The engine's tasks land on server 0; the workers parked at server
		// 1 get work only by stealing.
		const tasks = 48
		compiled := mustCompile(t, unitSource(tasks, `bench::spin\n`))
		if stolen, _ := runSpin(t, compiled, tasks, 8, 2, false); stolen == 0 {
			t.Error("steal on: no item stolen")
		}
		if stolen, _ := runSpin(t, compiled, tasks, 8, 2, true); stolen != 0 {
			t.Errorf("steal off: %d items stolen", stolen)
		}
	})
	t.Run("scaling", func(t *testing.T) {
		// Sleeping leaves overlap: 16 workers finish 64 × 2 ms in about a
		// tenth of one worker's time; ⅓ leaves a wide margin.
		const tasks = 64
		compiled := mustCompile(t, unitSource(tasks, `bench::spin\n`))
		_, one := runSpin(t, compiled, tasks, 1, 1, false)
		_, sixteen := runSpin(t, compiled, tasks, 16, 1, false)
		t.Logf("64 × %v leaves: 1 worker %v, 16 workers %v (%.1f×)", taskSleep, one, sixteen, float64(one)/float64(sixteen))
		if sixteen*3 > one {
			t.Errorf("16 workers took %v, more than ⅓ of 1 worker's %v", sixteen, one)
		}
	})
}

// ---------------------------------------------------------------------
// Fig3 — §III-B: the SWIG binding pipeline. Native call path overhead:
// direct Go call vs SWIG-wrapped Tcl command vs full Swift leaf task.
// ---------------------------------------------------------------------

// waveSource calls sim_waveform(i, 0.01) as a Swift leaf for each i in
// [0:n-1] and prints each result with every bit.
func waveSource(n int) string {
	return fmt.Sprintf(`
		(float o) wave(int i)
			"libsim" "1.0"
			[ "set <<o>> [ sim_waveform <<i>> 0.01 ]" ];
		foreach i in [0:%d] {
			float w = wave(i);
			printf("wave %%i %%.17g", i, w);
		}`, n-1)
}

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
		compiled := mustCompile(b, waveSource(32))
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
	// The whole pipeline from Swift: the leaf's result crosses Tcl text
	// and the data store and arrives bit-equal to the direct kernel call.
	kernel, err := lib.Resolve("sim_waveform")
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernel([]any{int64(7), 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(waveSource(8), core.Config{NativeLibs: []*nativelib.Library{lib}})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, line := range strings.Split(res.Stdout, "\n") {
		if v, ok := strings.CutPrefix(line, "wave 7 "); ok {
			if got, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if math.Float64bits(got) != math.Float64bits(want.(float64)) {
		t.Fatalf("Swift leaf sim_waveform(7, 0.01) = %v, direct kernel = %v\n%s", got, want, res.Stdout)
	}
}

// ---------------------------------------------------------------------
// C1 — §III-C: embedded interpreters vs fork/exec of an external
// interpreter. The external path pays process-spawn and filesystem
// costs per task; the embedded path pays neither.
// ---------------------------------------------------------------------

const c1Tasks = 16

var (
	c1Embedded = fmt.Sprintf(`
		foreach i in [0:%d] {
			string s = python("y = 21 * 2", "y");
		}`, c1Tasks-1)
	c1External = fmt.Sprintf(`
		foreach i in [0:%d] {
			string s = sh("python-exe", "-c", "21*2");
		}`, c1Tasks-1)
)

// pythonExe is the external interpreter: a fresh process per task that
// initialises a new interpreter, evaluates, and exits.
func pythonExe(sys *shell.System, argv []string, stdin string) (string, error) {
	if len(argv) < 3 || argv[1] != "-c" {
		return "", fmt.Errorf("python-exe: usage: python-exe -c expr")
	}
	v, err := pylite.New().EvalExpr(argv[2])
	if err != nil {
		return "", err
	}
	return pylite.Str(v), nil
}

// runC1External runs the external-interpreter program on a filesystem
// holding the interpreter binary.
func runC1External(tb testing.TB, compiled *stc.Output) (*core.Result, *pfs.FS) {
	tb.Helper()
	fs := pfs.New(pfs.DefaultConfig())
	fs.Provision("/bin/python-exe", make([]byte, 1<<20))
	res, err := core.RunCompiled(compiled, core.Config{
		Engines: 1, Workers: 4, Servers: 1,
		FS:       fs,
		Programs: map[string]shell.Program{"python-exe": pythonExe},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res, fs
}

func BenchmarkC1EmbeddedVsExternal(b *testing.B) {
	embCompiled := mustCompile(b, c1Embedded)
	extCompiled := mustCompile(b, c1External)
	b.Run("embedded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunCompiled(embCompiled, core.Config{Engines: 1, Workers: 4, Servers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Evals["python"] != c1Tasks {
				b.Fatalf("evals = %d", res.Evals["python"])
			}
		}
		b.ReportMetric(0, "virtual-ms/run")
	})
	b.Run("external-exec", func(b *testing.B) {
		// Wall time leaves out what a real launch costs; the virtual
		// clock prices it: a spawn per task plus loading the binary from
		// the filesystem.
		var virtual time.Duration
		for i := 0; i < b.N; i++ {
			res, fs := runC1External(b, extCompiled)
			if res.Spawns != c1Tasks {
				b.Fatalf("spawns = %d", res.Spawns)
			}
			virtual += time.Duration(res.Spawns)*shell.SpawnCost + fs.VirtualElapsed()
		}
		b.ReportMetric(float64(virtual.Microseconds())/1e3/float64(b.N), "virtual-ms/run")
	})
}

func TestC1ExternalImpossibleOnBGQ(t *testing.T) {
	// On the BG/Q there is no comparison to make: exec is impossible and
	// only the embedded path functions — the paper's §III-C motivation.
	_, err := core.Run(`string s = sh("python-exe", "-c", "1");`, core.Config{
		ShellMode: shell.ModeBGQ,
	})
	if err == nil || !strings.Contains(err.Error(), "not supported on this system") {
		t.Fatalf("err = %v", err)
	}
	res, err := core.Run(`
		string s = python("y = 1", "y");
		printf("%s", s);`, core.Config{ShellMode: shell.ModeBGQ})
	if err != nil || !strings.Contains(res.Stdout, "1") {
		t.Fatalf("embedded on BGQ: %v %q", err, res.Stdout)
	}
	// On a cluster the external path works and pays per task: one process
	// launch and one metadata op to open the interpreter binary.
	ext, fs := runC1External(t, mustCompile(t, c1External))
	if ext.Spawns != c1Tasks || fs.MetaOps() != c1Tasks {
		t.Errorf("external: %d spawns, %d metadata ops; want %d each", ext.Spawns, fs.MetaOps(), c1Tasks)
	}
	emb, err := core.Run(c1Embedded, core.Config{Engines: 1, Workers: 4, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if emb.Spawns != 0 || emb.Evals["python"] != c1Tasks {
		t.Errorf("embedded: %d spawns, %d python evals; want 0 and %d", emb.Spawns, emb.Evals["python"], c1Tasks)
	}
}

// ---------------------------------------------------------------------
// C2 — §III-C: retain vs reinitialise interpreter state. Reinit pays
// the interpreter initialisation cost on every task.
// ---------------------------------------------------------------------

// runC2 evaluates one fragment evals times in a fresh interpreter of
// langName whose initialisation runs initCost: once up front, and again
// before every evaluation when reinit is set.
func runC2(langName string, initCost func(), reinit bool, evals int) error {
	var h interface {
		EvalFragment(code, expr string) (string, error)
		Reset()
	}
	var code string
	switch langName {
	case "python":
		py := pylite.New()
		py.InitCost = initCost
		h, code = py, "v = 2 + 2"
	case "r":
		r := rlite.New()
		r.InitCost = initCost
		h, code = r, "v <- 2 + 2"
	}
	for k := 0; k < evals; k++ {
		if k == 0 || reinit {
			h.Reset()
		}
		out, err := h.EvalFragment(code, "v")
		if err != nil {
			return err
		}
		if out != "4" {
			return fmt.Errorf("%s: v = %q", langName, out)
		}
	}
	return nil
}

func BenchmarkC2RetainVsReinit(b *testing.B) {
	const initCost = 500 * time.Microsecond
	const evals = 64
	for _, langName := range []string{"python", "r"} {
		for _, policy := range []string{"retain", "reinit"} {
			b.Run(langName+"/"+policy, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := runC2(langName, func() { time.Sleep(initCost) }, policy == "reinit", evals); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestC2RetainVsReinit(t *testing.T) {
	const evals = 64
	for _, langName := range []string{"python", "r"} {
		for _, c := range []struct {
			reinit bool
			inits  int
		}{{false, 1}, {true, evals}} {
			inits := 0
			if err := runC2(langName, func() { inits++ }, c.reinit, evals); err != nil {
				t.Fatal(err)
			}
			if inits != c.inits {
				t.Errorf("%s reinit=%v: %d inits for %d evals, want %d", langName, c.reinit, inits, evals, c.inits)
			}
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
	content := []byte(strings.Repeat("proc helper {} { return 1 }\n", 8))
	for _, mode := range []string{"small-files", "static-package"} {
		b.Run(mode, func(b *testing.B) {
			var virtualTotal time.Duration
			var metaOps int64
			for i := 0; i < b.N; i++ {
				fs := pfs.New(pfs.DefaultConfig())
				bundle := pkgs.NewBundle()
				for f := 0; f < nFiles; f++ {
					path := fmt.Sprintf("/app/lib/mod%03d.tcl", f)
					fs.Provision(path, content)
					bundle.Add(path, content)
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
// Every arm runs the same number of empty tasks on 8 workers, so the
// benchmark compares what each model costs per task.
// ---------------------------------------------------------------------

const c4Tasks = 32

// c4PyMPI is the master/worker protocol written by hand inside Python
// over MPI bindings: workers send their task ids, and the master sums
// what it receives.
var c4PyMPI = fmt.Sprintf(`
rank = mpi_rank()
size = mpi_size()
n = %d
if rank == 0:
    done = 0
    total = 0
    while done < n:
        total = total + int(mpi_recv())
        done = done + 1
    result = str(done) + " " + str(total)
else:
    i = rank - 1
    while i < n:
        mpi_send(0, str(i))
        i = i + size - 1
    result = "worker"
`, c4Tasks)

// runC4Swift runs the tasks as Swift leaf tasks.
func runC4Swift(tb testing.TB, compiled *stc.Output) *core.Result {
	tb.Helper()
	res, err := core.RunCompiled(compiled, core.Config{Engines: 1, Workers: 8, Servers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// runC4HandMPI runs the tasks under baseline.MasterWorker on 1 master +
// 8 workers and returns the master's results and the task executions.
func runC4HandMPI(tb testing.TB) (map[int][]byte, int64) {
	tb.Helper()
	jobs := make([]baseline.Task, c4Tasks)
	for i := range jobs {
		jobs[i] = baseline.Task{ID: i}
	}
	var runs atomic.Int64
	var results map[int][]byte
	w, _ := mpi.NewWorld(9)
	err := w.Run(func(c *mpi.Comm) error {
		r, err := baseline.MasterWorker(c, jobs, func(tk baseline.Task) ([]byte, error) {
			runs.Add(1)
			return []byte("ok"), nil
		})
		if c.Rank() == 0 {
			results = r
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return results, runs.Load()
}

// runC4PyMPI runs c4PyMPI under baseline.RunPyMPI on 9 ranks.
func runC4PyMPI(tb testing.TB) (string, *baseline.PyMPIStats) {
	tb.Helper()
	w, _ := mpi.NewWorld(9)
	stats := &baseline.PyMPIStats{}
	results, err := baseline.RunPyMPI(w, c4PyMPI, stats)
	if err != nil {
		tb.Fatal(err)
	}
	return results[0], stats
}

func BenchmarkC4VsHandMPI(b *testing.B) {
	b.Run("swiftt", func(b *testing.B) {
		compiled := mustCompile(b, unitSource(c4Tasks, ""))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runC4Swift(b, compiled)
		}
		b.ReportMetric(c4Tasks, "tasks/op")
	})
	b.Run("hand-mpi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runC4HandMPI(b)
		}
		b.ReportMetric(c4Tasks, "tasks/op")
	})
	b.Run("pympi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runC4PyMPI(b)
		}
		b.ReportMetric(c4Tasks, "tasks/op")
	})
}

func TestC4EachTaskOnce(t *testing.T) {
	if res := runC4Swift(t, mustCompile(t, unitSource(c4Tasks, ""))); res.LeafTasks != c4Tasks {
		t.Errorf("swift: %d leaf tasks, want %d", res.LeafTasks, c4Tasks)
	}
	results, runs := runC4HandMPI(t)
	if len(results) != c4Tasks || runs != c4Tasks {
		t.Errorf("hand MPI: %d results from %d executions, want %d of each", len(results), runs, c4Tasks)
	}
	master, stats := runC4PyMPI(t)
	if want := fmt.Sprintf("%d %d", c4Tasks, c4Tasks*(c4Tasks-1)/2); master != want {
		t.Errorf("pympi master: %q, want %q (tasks, sum of ids)", master, want)
	}
	if stats.Sends.Load() != c4Tasks || stats.Recvs.Load() != c4Tasks {
		t.Errorf("pympi: %d sends, %d recvs, want %d each", stats.Sends.Load(), stats.Recvs.Load(), c4Tasks)
	}
}

// ---------------------------------------------------------------------
// C5 — §II-B: "evaluate Swift semantics in a distributed manner (no
// bottleneck)": adding control ranks (engines/servers) must not change a
// fixed workload's result, and must not slow it.
// ---------------------------------------------------------------------

var c5Shapes = []struct{ engines, servers int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}}

func c5Source(n int) string {
	return fmt.Sprintf(`
		(int o) fast(int i) { o = i + 1; }
		foreach i in [0:%d] {
			int v = fast(i);
			if (v %% 32 == 0) { int w = python("", "argv1 * 2", v); trace(v, w); }
		}`, n-1)
}

func BenchmarkC5ControlScaling(b *testing.B) {
	const tasks = 256
	compiled := mustCompile(b, c5Source(tasks))
	for _, shape := range c5Shapes {
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

func TestC5ControlScaling(t *testing.T) {
	compiled := mustCompile(t, c5Source(256))
	var first string
	var firstLeaves int64
	for i, shape := range c5Shapes {
		res, err := core.RunCompiled(compiled, core.Config{Engines: shape.engines, Workers: 4, Servers: shape.servers})
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(res.Stdout), "\n")
		slices.Sort(lines)
		out := strings.Join(lines, "\n")
		if i == 0 {
			first, firstLeaves = out, res.LeafTasks
			if len(lines) != 8 {
				t.Fatalf("engines=1/servers=1: %d trace lines, want 8\n%s", len(lines), out)
			}
			continue
		}
		if out != first || res.LeafTasks != firstLeaves {
			t.Errorf("engines=%d/servers=%d: %d leaf tasks and stdout\n%s\nwant %d and\n%s",
				shape.engines, shape.servers, res.LeafTasks, out, firstLeaves, first)
		}
	}
	t.Logf("%d leaf tasks and the same 8 trace lines at %d shapes", firstLeaves, len(c5Shapes))
}

// ---------------------------------------------------------------------
// C6 — §III-B: blob marshalling throughput through the blobutils path.
// ---------------------------------------------------------------------

// c6Data is kb kilobytes of float64s.
func c6Data(kb int) []float64 {
	data := make([]float64, kb*1024/8)
	for i := range data {
		data[i] = float64(i)
	}
	return data
}

func BenchmarkC6BlobMarshal(b *testing.B) {
	for _, kb := range []int{1, 64, 1024, 16384} {
		data := c6Data(kb)
		n := len(data)
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

func TestC6BlobMarshal(t *testing.T) {
	// Every bit survives, the special values included.
	data := append(c6Data(1), math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64)
	out, err := blob.ToFloat64s(blob.FromFloat64s(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("%d values back, want %d", len(out), len(data))
	}
	for i := range data {
		if math.Float64bits(out[i]) != math.Float64bits(data[i]) {
			t.Fatalf("value %d: %x back, want %x", i, math.Float64bits(out[i]), math.Float64bits(data[i]))
		}
	}
	// Marshalling costs a buffer each way, whatever the size. The
	// collector stays off while counting: a cycle a 16 MB round trip
	// triggers makes allocations of its own.
	allocs := func(kb int) float64 {
		data := c6Data(kb)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(1, func() {
			if _, err := blob.ToFloat64s(blob.FromFloat64s(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1), allocs(16384); small != large {
		t.Errorf("allocs per round trip: %v at 1 KB, %v at 16 MB", small, large)
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
	cfg := adlb.Config{Servers: 1, Types: 2}
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
