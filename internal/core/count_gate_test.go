package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/mpi"
	"repro/internal/nativelib"
	"repro/internal/shell"
	"repro/internal/stc"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// ensembleShape is swiftbench's ensemble_small program at n pipelines:
// n literal floats into an array, a python -> r -> julia pipeline per
// member writing out[i], one gather and one sum.
func ensembleShape(n int) string {
	var b strings.Builder
	b.WriteString("float xs[];\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "xs[%d] = %d.25;\n", i, i)
	}
	b.WriteString(`float out[];
foreach x, i in xs {
	float a = python("", "argv1*2+1", x);
	float c = r("", "argv1+0.5", a);
	out[i] = julia("", "argv1*argv1", c);
}
float total = python("", "sum(argv1)", vpack(out));
printf("total=%.17g", total);
`)
	return b.String()
}

// TestEnsembleCountGate pins what the compiler and runtime pay to run the
// ensemble shape, as counts. These repeat exactly from run to run, so a
// compiler change that goes back to minting TDs for constants, loop
// indices or known subscripts — or to waiting on them — fails here rather
// than in a later benchmark. (Run with -v for the per-leaf figures.)
//
// Per pipeline: 3 result stores and 1 container insert — 4 — plus main's
// literal_float store and insert per xs member — 2. Each leaf is one Put
// carrying its input's id: the server holds it until the input is stored
// and hands its row to the worker with the item, so a leaf costs no
// chunk load. No scalar TD is created: a, c, out's member and the
// literals come into being at their first store or wait, so the only
// creates are the containers xs and out. The three control
// rules (asplit on xs, vpack on out, printf on total) wait the same way,
// each one Put held at the servers and delivered to the engine with its
// inputs' rows, so printf's turbine::value of total loads nothing either.
// Every Put is queued locally on the one server: 3n+2 leaves and 3 rules.
func TestEnsembleCountGate(t *testing.T) {
	const n = 12
	st, ts := &adlb.Stats{}, &turbine.Stats{}
	res, err := Run(ensembleShape(n), Config{Engines: 1, Workers: 2, Servers: 1, Stats: st, TurbineStats: ts})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < n; i++ {
		c := (float64(i)+0.25)*2 + 1 + 0.5
		want += c * c
	}
	if got := strings.TrimSpace(res.Stdout); got != fmt.Sprintf("total=%.17g", want) {
		t.Fatalf("stdout %q, want total=%.17g", got, want)
	}
	a := res.ADLB
	leaves := float64(res.LeafTasks)
	t.Logf("per leaf (%d leaves): data ops %.3f, rules %.3f, control %.3f, puts %.3f",
		res.LeafTasks, float64(a.DataOps)/leaves, float64(ts.RulesCreated.Load())/leaves,
		float64(res.ControlTasks)/leaves, float64(a.PutsLocal)/leaves)
	t.Logf("data ops by kind: %+v", a)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"leaf tasks", res.LeafTasks, 3*n + 2},
		{"adlb.DataOps", a.DataOps, 6*n + 11},
		{"adlb.OpCreate", a.OpCreate, 2},
		{"adlb.OpStore", a.OpStore, 4*n + 2},
		{"adlb.OpChunkLoad", a.OpChunkLoad, 0},
		{"adlb.OpInsert", a.OpInsert, 2 * n},
		{"adlb.OpWriteRefcount", a.OpWriteRefcount, 4},
		{"adlb.OpEnumerate", a.OpEnumerate, 3},
		{"adlb.PutsLocal", a.PutsLocal, 3*n + 5},
		{"adlb.Notifications", a.Notifications, 0},
		{"turbine.Notifications", ts.Notifications.Load(), 0},
		{"turbine.RulesCreated", ts.RulesCreated.Load(), 3*n + 5},
		{"turbine.ControlTasks", res.ControlTasks, 3},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// heldEnsemble runs the ensemble shape at n on one engine, one server
// and the given workers, which wait in their interpreter setup until the
// engine has parked in Get with every control action it can run done
// (main, the loop, vpack's rule). It returns the frames the world's
// ranks had sent when the engine parked and when the run ended, and the
// leaves run.
func heldEnsemble(t *testing.T, n, workers int) (atPark, atEnd uint64, leaves int64) {
	t.Helper()
	compiled, err := stc.Compile(ensembleShape(n))
	if err != nil {
		t.Fatal(err)
	}
	script, err := compiled.Script()
	if err != nil {
		t.Fatal(err)
	}
	st := &adlb.Stats{}
	r := newRig(nil, shell.NewSystem(shell.ModeCluster, nil), st, nil)
	release := make(chan struct{})
	tcfg := &turbine.Config{
		Engines: 1, Servers: 1, Stats: st, TurbineStats: r.tstats,
		ProgramScript: script, Main: compiled.Main,
		Setup: r.setup(PolicyRetain, nil, func(in *tcl.Interp) error {
			if !in.HasCommand("turbine::rule") { // registered on engine ranks only
				<-release
			}
			return nil
		}),
	}
	w, err := mpi.NewWorld(2 + workers)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(func(c *mpi.Comm) error { return turbine.Run(c, tcfg) }) }()
	for deadline := time.Now().Add(30 * time.Second); st.GetsParked.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			w.Abort(fmt.Errorf("the engine never parked"))
			close(release)
			t.Fatal(<-done)
		}
	}
	atPark = w.FramesSent()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	atEnd = w.FramesSent()
	leaves = r.tstats.LeafTasks.Load()
	if leaves != int64(3*n+2) {
		t.Fatalf("%d leaf tasks, want %d", leaves, 3*n+2)
	}
	return atPark, atEnd, leaves
}

// TestEngineFramesPerLeaf pins the engine's request frames per leaf on
// the ensemble shape at 0.06 or less, counted off the frames the world's
// ranks send. The one worker waits in its interpreter setup until the
// engine has parked in Get, so until then every frame sent is an engine
// request or the one server's reply to it. The engine's writes — main's
// literal stores and inserts, each loop body's three leaf Puts and its
// insert — travel in one frame per server per control action, or per
// maxBatch writes, and its ids come 1024 to a Unique round trip; at one
// round trip per write they cost about 2 frames a leaf, and with 64-id
// blocks, whose round trips each also flush a partial batch, 0.075.
func TestEngineFramesPerLeaf(t *testing.T) {
	const n = 200
	atPark, _, leaves := heldEnsemble(t, n, 1)
	// Each request frame and its reply; the parked Get's reply is due.
	requests := (atPark + 1) / 2
	perLeaf := float64(requests) / float64(leaves)
	t.Logf("the engine sent %d request frames for %d leaves: %.3f a leaf", requests, leaves, perLeaf)
	if perLeaf > 0.06 {
		t.Fatalf("the engine sends %.3f request frames a leaf, want <= 0.06", perLeaf)
	}
}

// TestWorkerFramesPerLeaf pins the workers' request frames per leaf on
// the ensemble shape at 0.25 or less, with 1, 2 and 4 workers. The
// workers wait in setup until the engine has parked (heldEnsemble), so
// the frames sent from then on are the workers' requests and replies,
// and the few of the engine's last control actions, which this counts
// as the workers'. A leased Get brings back the worker's share of the
// queue, up to maxDelivery items, whose settles and results ride the
// next Get: at one Get per leaf the workers sent 1.007 frames a leaf.
func TestWorkerFramesPerLeaf(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			atPark, atEnd, leaves := heldEnsemble(t, n, workers)
			// Each request frame and its reply; the engine's parked Get's
			// reply was due at the park.
			requests := (atEnd - atPark - 1) / 2
			perLeaf := float64(requests) / float64(leaves)
			t.Logf("%d workers sent %d request frames for %d leaves: %.3f a leaf", workers, requests, leaves, perLeaf)
			if perLeaf > 0.25 {
				t.Fatalf("the workers send %.3f request frames a leaf, want <= 0.25", perLeaf)
			}
		})
	}
}

// TestWorkerRunsLeavesWithNoTcl: a leaf reaches its engine as a typed
// record, so a worker's Tcl interpreter parses nothing per leaf. The
// scripts the workers' interpreters hold after an ensemble run (their
// parse caches, captured through the setup hook) are as many at n = 48 as
// at n = 12; a leaf that went back to Tcl text would add one per leaf.
func TestWorkerRunsLeavesWithNoTcl(t *testing.T) {
	scripts := func(n int) int {
		var mu sync.Mutex
		var workers []*tcl.Interp
		capture := func(in *tcl.Interp) error {
			if !in.HasCommand("turbine::rule") { // registered on engine ranks only
				mu.Lock()
				workers = append(workers, in)
				mu.Unlock()
			}
			return nil
		}
		res, err := Run(ensembleShape(n), Config{Engines: 1, Workers: 2, Servers: 1, TclSetup: capture})
		if err != nil {
			t.Fatal(err)
		}
		if res.LeafTasks != int64(3*n+2) || len(workers) != 2 {
			t.Fatalf("n=%d: %d leaf tasks on %d workers, want %d on 2", n, res.LeafTasks, len(workers), 3*n+2)
		}
		total := 0
		for _, in := range workers {
			s, _ := in.CacheStats()
			total += s
		}
		return total
	}
	small, large := scripts(12), scripts(48)
	t.Logf("scripts parsed by the workers: %d at n=12, %d at n=48", small, large)
	if small != large {
		t.Fatalf("worker scripts grew with n: %d at n=12, %d at n=48", small, large)
	}
}

// bridgeShape is swiftbench's vector_scatter_gather program at n members:
// a python blob through vunpack -> vpack -> r -> vunpack -> vpack -> julia.
func bridgeShape(n int) string {
	return fmt.Sprintf(`
		blob b0 = python("v = []\nfor k in range(%d):\n    v.append(1.5 + k * 0.25)", "v");
		float x0[] = vunpack(b0);
		blob b1 = vpack(x0);
		blob b2 = r("", "argv1 + 0.25", b1);
		float x1[] = vunpack(b2);
		blob b3 = vpack(x1);
		float s = julia("", "sum(argv1)", b3);
		printf("sum=%%.17g", s);
	`, n)
}

// TestVectorBridgeCountGate pins the container<->vector bridge's data ops
// as a count that does not grow with n: each scatter is one chunk RPC per
// owning server, each gather's members ride its work item, and the engine
// waits on a container, not on each member, its vunpack reading the
// members that ride the rule. A bridge that goes back to one op per
// member fails here.
func TestVectorBridgeCountGate(t *testing.T) {
	const wantOps = 15
	for _, n := range []int{800, 8000} {
		res, err := Run(bridgeShape(n), Config{Engines: 1, Workers: 2, Servers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for k := 0; k < n; k++ {
			sum += 1.5 + float64(k)*0.25 + 0.25
		}
		if got, want := strings.TrimSpace(res.Stdout), fmt.Sprintf("sum=%.17g", sum); got != want {
			t.Errorf("n=%d: stdout %q, want %s", n, got, want)
		}
		t.Logf("n=%d: data ops %d, by kind: %+v", n, res.ADLB.DataOps, res.ADLB)
		if res.ADLB.DataOps != wantOps {
			t.Errorf("n=%d: adlb.DataOps = %d, want %d", n, res.ADLB.DataOps, wantOps)
		}
	}
}

// TestWorldStandUpAllocs: standing up a world costs its ranks, not the
// program's text. The empty program at 1 engine, 4 workers and 1 server
// (cold_runs' world, the native library bound on every rank) allocates
// at most 1000 times a run: each rank installs the program's pre-built
// procs, starts from a copy of the core command table and reuses the
// header's parsed declarations.
func TestWorldStandUpAllocs(t *testing.T) {
	empty, err := stc.Compile("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engines: 1, Workers: 4, Servers: 1, NativeLibs: []*nativelib.Library{nativelib.NewSimLibrary()}}
	run := func() {
		if _, err := RunCompiled(empty, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // the per-process tables are built once, by the first world
	if allocs := testing.AllocsPerRun(20, run); allocs > 1000 {
		t.Fatalf("an empty world stands up with %.0f allocations, want <= 1000", allocs)
	}
}

// BenchmarkEnsembleShape runs the ensemble shape at 1500 pipelines on one
// engine, two workers and one server, compiled once: the profile harness
// for a leaf's path through every layer. It reports allocations and
// leaves a second.
func BenchmarkEnsembleShape(b *testing.B) {
	const n = 1500
	compiled, err := stc.Compile(ensembleShape(n))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Engines: 1, Workers: 2, Servers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var leaves int64
	for i := 0; i < b.N; i++ {
		res, err := RunCompiled(compiled, cfg)
		if err != nil {
			b.Fatal(err)
		}
		leaves += res.LeafTasks
	}
	b.ReportMetric(float64(leaves)/b.Elapsed().Seconds(), "leaves/s")
}

// blobPipelineShape is swiftbench's blob_pipeline program at pipes
// pipelines of n float64s: one blob through python, r and julia
// pass-throughs and a python sum.
func blobPipelineShape(pipes, n int) string {
	var b strings.Builder
	b.WriteString(`(float s) pipe(int n) {
	blob b0 = julia("", "ones(argv1)", n);
	blob b1 = python("", "argv1", b0);
	blob b2 = r("", "argv1", b1);
	blob b3 = julia("", "argv1", b2);
	s = python("", "sum(argv1)", b3);
}
float out[];
`)
	for i := 0; i < pipes; i++ {
		fmt.Fprintf(&b, "out[%d] = pipe(%d);\n", i, n)
	}
	b.WriteString(`float total = python("", "sum(argv1)", vpack(out));
printf("total=%.17g", total);
`)
	return b.String()
}

// BenchmarkBlobPipelineShape runs the blob pipeline shape, 8 pipelines
// of 1 Mi float64s (8 MiB a blob) on one engine, two workers and one
// server, compiled once: the profile harness for a large blob's path
// into and out of the engines. It reports bytes and allocations a run.
func BenchmarkBlobPipelineShape(b *testing.B) {
	const pipes, n = 8, 1 << 20
	compiled, err := stc.Compile(blobPipelineShape(pipes, n))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Engines: 1, Workers: 2, Servers: 1}
	want := fmt.Sprintf("total=%d", pipes*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunCompiled(compiled, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(res.Stdout, want) {
			b.Fatalf("stdout = %q, want %q", res.Stdout, want)
		}
	}
}
