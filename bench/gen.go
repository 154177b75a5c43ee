package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// sizes fixes how much work one repetition of each workload holds. The
// full sizes are the benchmark; tiny ones let the tests run the same code
// in seconds.
type sizes struct {
	Pipelines      int `json:"ensemble_pipelines"`   // ensemble_small, elastic_tcp: foreach pipelines
	ComputeTasks   int `json:"compute_tasks"`        // ensemble_compute: single-stage tasks
	PyLoop         int `json:"compute_py_loop"`      // ensemble_compute: python loop iterations
	VecLen         int `json:"compute_vector_len"`   // ensemble_compute: r/julia vector length
	VecN           int `json:"vector_elems"`         // vector_scatter_gather: elements per blob
	VecTrips       int `json:"vector_trips"`         // vector_scatter_gather: round trips per repetition
	BlobElems      int `json:"blob_elems"`           // blob_pipeline: float64 elements per blob
	BlobPipes      int `json:"blob_pipelines"`       // blob_pipeline: pipelines per repetition
	ColdRuns       int `json:"cold_runs_per_rep"`    // cold_runs: RunCompiled calls per repetition
	FragsPerClient int `json:"frags_per_client"`     // serve_frags: requests per client per repetition
	FragBlobBytes  int `json:"frag_blob_bytes"`      // serve_frags: blob argument payload
	SleepTasks     int `json:"sleep_tasks"`          // balance_sleep: leaf tasks per run
	SleepRuns      int `json:"sleep_runs_per_rep"`   // balance_sleep: runs per repetition
	LadderScale    int `json:"ladder_scale_percent"` // ladder probe iteration counts, percent of full
}

var fullSizes = sizes{
	Pipelines: 1500, ComputeTasks: 501, PyLoop: 4000, VecLen: 10_000,
	VecN: 8000, VecTrips: 2, BlobElems: 1 << 20, BlobPipes: 8,
	ColdRuns: 150, FragsPerClient: 1500, FragBlobBytes: 64 << 10,
	SleepTasks: 256, SleepRuns: 5, LadderScale: 100,
}

var tinySizes = sizes{
	Pipelines: 12, ComputeTasks: 6, PyLoop: 40, VecLen: 50,
	VecN: 40, VecTrips: 1, BlobElems: 512, BlobPipes: 2,
	ColdRuns: 3, FragsPerClient: 40, FragBlobBytes: 1 << 10,
	SleepTasks: 8, SleepRuns: 1, LadderScale: 1,
}

// rngFor derives an independent generator per (seed, workload), so adding
// a workload never shifts another's inputs.
func rngFor(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// lit renders x with four decimals and returns the value that text
// denotes, so the oracle computes from exactly what the program reads.
func lit(x float64) (string, float64) {
	s := strconv.FormatFloat(x, 'f', 4, 64)
	v, _ := strconv.ParseFloat(s, 64) // s was just produced by FormatFloat
	return s, v
}

// program is one generated Swift program with what a correct run must
// print and how much work it holds.
type program struct {
	src    string
	want   float64 // the value printed after "total="
	leaves int64   // leaf tasks a correct run executes
	units  float64 // the workload's native work units in one run
	sleep  float64 // seconds of leaf-task sleep in one run (balance_sleep)
}

// Interlanguage fragments of the ensemble pipeline. The code strings
// repeat across tasks, as they do in a real ensemble; only argv1 varies.
const (
	smallPy = "argv1*2+1"
	smallR  = "argv1+0.5"
	smallJl = "argv1*argv1"
)

// genEnsembleSmall: n pipelines python -> r -> julia on distinct float
// arguments, gathered by vpack and summed in one python call.
func genEnsembleSmall(seed int64, n int) program {
	rng := rngFor(seed, "ensemble_small")
	var b strings.Builder
	b.WriteString("float xs[];\n")
	var total float64
	for i := 0; i < n; i++ {
		// i + fraction: every argument is distinct, so memoizing pure
		// calls cannot collapse the run.
		s, x := lit(float64(i) + rng.Float64())
		fmt.Fprintf(&b, "xs[%d] = %s;\n", i, s)
		c := (x*2 + 1) + 0.5
		total += c * c
	}
	fmt.Fprintf(&b, `float out[];
foreach x, i in xs {
	float a = python("", %q, x);
	float c = r("", %q, a);
	out[i] = julia("", %q, c);
}
float total = python("", "sum(argv1)", vpack(out));
printf("total=%%.17g", total);
`, smallPy, smallR, smallJl)
	return program{src: b.String(), want: total, leaves: int64(3*n + 2), units: float64(3*n + 2)}
}

// Heavy single-stage fragments: about a millisecond of evaluator each.
func heavyPy(loop int) string {
	return fmt.Sprintf("s = 0.0\nfor k in range(%d):\n    s = s + (k %% 7) * argv1", loop)
}
func heavyR(n int) string  { return fmt.Sprintf("v <- (1:%d) * argv1\ns <- sum(v * v + v)", n) }
func heavyJl(n int) string { return fmt.Sprintf("v = collect(1:%d) .* argv1\ns = sum(v .* v .+ v)", n) }

func heavyPyWant(loop int, x float64) float64 {
	s := 0.0
	for k := 0; k < loop; k++ {
		s = s + float64(k%7)*x
	}
	return s
}

func heavyVecWant(n int, x float64) float64 {
	s := 0.0
	for k := 1; k <= n; k++ {
		v := float64(k) * x
		s += v*v + v
	}
	return s
}

// genEnsembleCompute: n single-stage tasks, a third per language, each
// dominated by its evaluator.
func genEnsembleCompute(seed int64, sz sizes) program {
	rng := rngFor(seed, "ensemble_compute")
	per := sz.ComputeTasks / 3
	var b strings.Builder
	var sums [3]float64
	for li, arr := range []string{"ps", "rs", "js"} {
		fmt.Fprintf(&b, "float %sin[];\n", arr)
		for i := 0; i < per; i++ {
			s, x := lit(1 + rng.Float64())
			fmt.Fprintf(&b, "%sin[%d] = %s;\n", arr, i, s)
			if li == 0 {
				sums[li] += heavyPyWant(sz.PyLoop, x)
			} else {
				sums[li] += heavyVecWant(sz.VecLen, x)
			}
		}
	}
	fmt.Fprintf(&b, `float ps[];
float rs[];
float js[];
foreach x, i in psin { ps[i] = python(%q, "s", x); }
foreach x, i in rsin { rs[i] = r(%q, "s", x); }
foreach x, i in jsin { js[i] = julia(%q, "s", x); }
float total = python("", "sum(argv1) + sum(argv2) + sum(argv3)", vpack(ps), vpack(rs), vpack(js));
printf("total=%%.17g", total);
`, heavyPy(sz.PyLoop), heavyR(sz.VecLen), heavyJl(sz.VecLen))
	n := int64(3*per + 1)
	return program{src: b.String(), want: sums[0] + sums[1] + sums[2], leaves: n + 3, units: float64(n + 3)}
}

// genVector: a blob born in one python call, scattered to a container,
// gathered back, shifted in r, scattered and gathered again, summed in
// julia — trips times, on seeded vector contents.
func genVector(seed int64, n, trips int) program {
	rng := rngFor(seed, "vector_scatter_gather")
	var b strings.Builder
	fmt.Fprintf(&b, `(float s) trip(float a, float b) {
	blob b0 = python("v = []\nfor k in range(%d):\n    v.append(argv1 + k * argv2)", "v", a, b);
	float x0[] = vunpack(b0);
	blob b1 = vpack(x0);
	blob b2 = r("", "argv1 + 0.25", b1);
	float x1[] = vunpack(b2);
	blob b3 = vpack(x1);
	s = julia("", "sum(argv1)", b3);
}
float out[];
`, n)
	var total float64
	for t := 0; t < trips; t++ {
		as, a := lit(1 + rng.Float64())
		bs, bb := lit(0.1 + rng.Float64())
		fmt.Fprintf(&b, "out[%d] = trip(%s, %s);\n", t, as, bs)
		var s float64
		for k := 0; k < n; k++ {
			s += (a + float64(k)*bb) + 0.25
		}
		total += s
	}
	b.WriteString(`float total = python("", "sum(argv1)", vpack(out));
printf("total=%.17g", total);
`)
	// Per trip: 3 engine calls, 2 scatters, 2 gathers; plus the final
	// gather and sum. Units are container members moved.
	return program{src: b.String(), want: total, leaves: int64(7*trips + 2), units: float64(4 * n * trips)}
}

// blobDeliveries is how many times one blob_pipeline blob reaches an
// engine: python, r, julia pass-throughs and the python sum.
const blobDeliveries = 4

// genBlob: pipes pipelines, each carrying one large float64 blob through
// python -> r -> julia -> python. The blob is born by julia's ones(n),
// the cheapest builtin; the seed varies each n a little so that the
// printed total depends on it.
func genBlob(seed int64, elems, pipes int) program {
	rng := rngFor(seed, "blob_pipeline")
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
	var total, bytes float64
	for i := 0; i < pipes; i++ {
		n := elems + rng.Intn(elems/256+1)
		fmt.Fprintf(&b, "out[%d] = pipe(%d);\n", i, n)
		total += float64(n)
		bytes += float64(blobDeliveries * 8 * n)
	}
	b.WriteString(`float total = python("", "sum(argv1)", vpack(out));
printf("total=%.17g", total);
`)
	return program{src: b.String(), want: total, leaves: int64(5*pipes + 2), units: bytes / 1e6}
}

// coldSource is BenchmarkEndToEndInterlanguage's program, unchanged since
// PR 2: 8 native + 8 python + 8 r leaf tasks. It takes no input; the
// seed does not reach it, and its oracle is its task and eval counts.
const coldSource = `
	(float o) wave(int i)
		"libsim" "1.0"
		[ "set <<o>> [ sim_waveform <<i>> 0.1 ]" ];
	foreach i in [0:7] {
		float w = wave(i);
		string p = python("y = 1 + 1", "y");
		string s = r("v <- 1:3", "sum(v)");
	}`

// genSleep: tasks leaf tasks that sleep a heavy-tailed 1-8 ms (Pareto,
// alpha 1.5, truncated) and return i+us, summed for the oracle.
func genSleep(seed int64, tasks int) program {
	rng := rngFor(seed, "balance_sleep")
	var b strings.Builder
	b.WriteString(`(int o) unit(int i, int us)
	"benchpkg" "1.0"
	[ "bench::spin <<us>>\nset <<o>> [expr {<<i>> + <<us>>}]" ];
int out[];
`)
	var total, sleep float64
	for i := 0; i < tasks; i++ {
		us := int(1000 * math.Min(8, math.Pow(1-rng.Float64(), -1/1.5)))
		fmt.Fprintf(&b, "out[%d] = unit(%d, %d);\n", i, i, us)
		total += float64(i + us)
		sleep += float64(us) / 1e6
	}
	b.WriteString(`int total = python("", "sum(argv1)", vpack(out));
printf("total=%i", total);
`)
	// Units are milliseconds slept: the same at every seed per unit of
	// wall only if the load is balanced.
	return program{src: b.String(), want: total, leaves: int64(tasks + 2), units: sleep * 1e3, sleep: sleep}
}

// parseTotal extracts the value a generated program printed.
func parseTotal(stdout string) (float64, error) {
	_, rest, ok := strings.Cut(stdout, "total=")
	if !ok {
		return 0, fmt.Errorf("no total= in output %q", clip(stdout))
	}
	if i := strings.IndexAny(rest, " \n"); i >= 0 {
		rest = rest[:i]
	}
	return strconv.ParseFloat(rest, 64)
}

// closeTo compares a result with its oracle to 1e-12 relative: sums are
// taken in index order on both sides, so most compare exactly.
func closeTo(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}
