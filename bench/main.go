// Command bench is the repository's benchmark: eight workloads through the
// three front doors (core.RunCompiled, core.ServeElastic over TCP, swiftd
// over HTTP), a ladder that prices each layer alone, and a traced pass.
// Every layer is measured from outside, through the functions and counters
// it already exports; see README.md for the metrics and how they interact.
//
//	go run ./bench -seed 1              every workload, interleaved rounds, ladder, traced pass
//	go run ./bench -selfcheck           two full sets; fails if they disagree beyond a bound
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                    one workload for S seconds; the last line of
//	                                    standard output is the result as one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// outDir receives results.json and trace.json; .gitignore names it.
const outDir = "bench/out"

// Full-suite shape: R interleaved rounds untraced, then the ladder and a
// few rounds with span recording on.
const (
	suiteRounds  = 10
	tracedRounds = 3
)

type workloadReport struct {
	Name     string `json:"name"`
	Unit     string `json:"work_unit"`
	Run      string `json:"run_is"`
	Detail   string `json:"inputs"`
	Rounds   int    `json:"rounds"`
	Samples  int    `json:"run_samples"`
	TailRead string `json:"run_tail_reads"`

	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	FirstError string `json:"first_error,omitempty"`

	// EndToEnd is measured untraced, at reference machine speed;
	// WorkPerSAsMeasured is the throughput without the speed scaling.
	EndToEnd           map[string]float64 `json:"end_to_end,omitempty"`
	WorkPerSAsMeasured float64            `json:"work_per_s_as_measured,omitempty"`
	// Counters and Attribution come from the traced pass.
	Counters    map[string]float64 `json:"per_layer_counters,omitempty"`
	Attribution *attribution       `json:"attribution,omitempty"`
}

type report struct {
	Seed         int64              `json:"seed"`
	Host         hostInfo           `json:"host"`
	Sizes        sizes              `json:"sizes"`
	Workloads    []workloadReport   `json:"workloads"`
	Ladder       map[string]float64 `json:"per_layer_ladder,omitempty"`
	LadderErrors []string           `json:"ladder_errors,omitempty"`
	SelfMs       map[string]float64 `json:"traced_self_ms_by_layer,omitempty"`
	CalibMs      float64            `json:"calib_ms"`
	CalibSpread  float64            `json:"calib_spread_pct"`
}

// plan says how long each pass of a run lasts. A zero traced limit means
// no ladder and no traced pass.
type plan struct {
	untraced, traced limit
}

// run makes one benchmark run: set-up, the untraced pass and — when the
// plan asks — the ladder and the traced pass.
func run(seed int64, sz sizes, only string, p plan) (*report, *tracer, error) {
	b, err := newBench(seed, sz, only)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	if p.traced != (limit{}) {
		b.tr = newTracer()
	}
	if err := b.setup(); err != nil {
		return nil, nil, err
	}
	b.pass(nil, p.untraced)
	if p.traced != (limit{}) {
		b.ladder = runLadder(b.tr, seed, sz)
		b.pass(b.tr, p.traced)
	}
	return b.report(), b.tr, nil
}

func (b *bench) report() *report {
	rep := &report{
		Seed: b.seed, Host: readHost(), Sizes: b.sz,
		CalibMs: median(b.calibs), CalibSpread: 100 * spread(b.calibs),
	}
	if b.ladder != nil {
		rep.Ladder = b.ladder.vals
		rep.LadderErrors = b.ladder.errs
		rep.SelfMs = make(map[string]float64)
		for layer, d := range b.tr.selfByLayer() {
			rep.SelfMs[layer] = float64(d) / float64(time.Millisecond)
		}
	}
	for _, st := range b.states {
		ps := &st.untraced
		wr := workloadReport{
			Name: st.w.name, Unit: st.w.unit, Run: st.w.run, Detail: st.w.detail,
			Rounds: len(ps.reps), Samples: len(ps.runs),
			Attempted:  ps.attempted + st.traced.attempted,
			Failed:     ps.failed + st.traced.failed,
			FirstError: ps.firstErr,
		}
		if wr.FirstError == "" {
			wr.FirstError = st.traced.firstErr
		}
		if vals, read, ok := b.endToEndOf(st); ok {
			wr.EndToEnd = vals
			wr.TailRead = fmt.Sprintf("p%g of %d samples", read, len(ps.runs))
			wr.WorkPerSAsMeasured = st.w.units / median(ps.walls())
		}
		if b.ladder != nil {
			m, att := b.counterMetricsOf(st)
			wr.Counters, wr.Attribution = m, &att
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

func (r *report) totals() (attempted, failed int) {
	for _, w := range r.Workloads {
		attempted += w.Attempted
		failed += w.Failed
	}
	failed += len(r.LadderErrors)
	attempted += len(r.Ladder) + len(r.LadderErrors)
	return attempted, failed
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes every metric by name with its unit.
func (r *report) print() {
	h := r.Host
	fmt.Printf("swiftbench seed=%d nproc=%d GOMAXPROCS=%d %s cpu=%q calib=%.2f ms (spread %.1f%%; reference %.0f ms)\n",
		r.Seed, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, r.CalibMs, r.CalibSpread, calibRefMs)
	fmt.Println("\n== end-to-end: untraced pass, medians across rounds, at reference machine speed ==")
	for _, w := range r.Workloads {
		fmt.Printf("%-22s %s\n", w.Name, w.Detail)
		fmt.Printf("  work = %s; run = %s; %d rounds, run_tail_ms reads %s; attempted %d, failed %d\n",
			w.Unit, w.Run, w.Rounds, w.TailRead, w.Attempted, w.Failed)
		if w.FirstError != "" {
			fmt.Printf("  FIRST ERROR: %s\n", w.FirstError)
		}
		for _, d := range endToEnd {
			if v, ok := w.EndToEnd[d.Name]; ok {
				fmt.Printf("  %-14s %14.4f %-4s (%s is better, bound %.0f%%)\n", d.Name, v, d.Unit, d.Better, 100*d.Bound)
			}
		}
		fmt.Printf("  as measured, without the speed scaling: work_per_s %.4f\n", w.WorkPerSAsMeasured)
	}
	if r.Ladder == nil {
		return
	}
	fmt.Println("\n== per-layer: the ladder (each layer driven alone; traced pass) ==")
	for _, d := range ladderMetrics {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, r.Ladder[d.Name], d.Unit)
	}
	for _, e := range r.LadderErrors {
		fmt.Printf("  LADDER ERROR: %s\n", e)
	}
	fmt.Println("\n== per-layer: the workloads' own counters (traced pass) ==")
	for _, d := range counterMetrics {
		fmt.Printf("  %s [%s]\n   ", d.Name, d.Unit)
		for _, w := range r.Workloads {
			fmt.Printf(" %s=%.4g", w.Name, w.Counters[d.Name])
		}
		fmt.Println()
	}
	fmt.Println("\n== attribution: one leaf task priced from its counts and the ladder's unit costs ==")
	for _, w := range r.Workloads {
		a := w.Attribution
		if a == nil || a.WallPerLeafUs == 0 {
			continue
		}
		fmt.Printf("  %-22s wall %.1f us per leaf; attributed %.0f%%:", w.Name, a.WallPerLeafUs, 100*a.Share)
		for _, k := range sortedKeys(a.Layers) {
			fmt.Printf(" %s %.1f;", k, a.Layers[k])
		}
		fmt.Println()
	}
	fmt.Printf("  unattributed: %s\n", unattributedNote)
	fmt.Println("\n== traced pass: self time by layer (span minus child spans), ms ==")
	for _, k := range sortedKeys(r.SelfMs) {
		fmt.Printf("  %-10s %12.1f\n", k, r.SelfMs[k])
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

var suitePlan = plan{untraced: limit{rounds: suiteRounds}, traced: limit{rounds: tracedRounds}}

// suite is `go run ./bench -seed N`: every workload, every metric.
func suite(seed int64) error {
	rep, tr, err := run(seed, fullSizes, "", suitePlan)
	if err != nil {
		return err
	}
	rep.print()
	if err := tr.write(filepath.Join(outDir, "trace.json")); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), rep); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s/results.json and %s/trace.json\n", outDir, outDir)
	if _, failed := rep.totals(); failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// selfcheck runs the suite twice, each set in a process of its own so that
// the second does not inherit the first one's grown heap, and compares
// every end-to-end pair with its bound: the tool behind "unresolved"
// versus "unchanged" calls.
func selfcheck(seed int64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := filepath.Join(outDir, "results.json")
	var sets [2]*report
	for i := range sets {
		fmt.Printf("== set %d ==\n", i+1)
		cmd := exec.Command(self, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set %d: %w", i+1, err)
		}
		data, err := os.ReadFile(results)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", results, err)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "selfcheck.json"), sets); err != nil {
		return err
	}
	fmt.Println("\n== selfcheck: the two sets, pair by pair ==")
	bad := compareSets(sets[0], sets[1])
	fmt.Printf("wrote %s/selfcheck.json\n", outDir)
	if bad > 0 {
		return fmt.Errorf("%d end-to-end pairs disagree by more than their bound", bad)
	}
	return nil
}

// compareSets prints, per (metric, workload), the two medians, how far the
// second is on the worse side of the first, and the bound; it returns how
// many pairs are beyond their bound in either direction.
func compareSets(a, b *report) (bad int) {
	fmt.Printf("%-22s %-12s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			x, y := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			diff := math.Abs(y-x) / math.Min(x, y)
			mark := ""
			if diff > d.Bound || math.IsNaN(diff) {
				mark = "  BEYOND BOUND"
				bad++
			}
			fmt.Printf("%-22s %-12s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", wa.Name, d.Name, x, y, 100*diff, 100*d.Bound, mark)
		}
	}
	return bad
}

// driverResult is the last line of standard output in -workload mode.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is one workload's result: the end-to-end metrics of the
// untraced pass, or every per-layer metric of the traced one.
func (r *report) resultLine(w workloadReport, traced bool) driverResult {
	res := driverResult{Metrics: make(map[string]driverMetric)}
	res.Attempted, res.Failed = r.totals()
	res.Correct = res.Failed == 0
	if traced {
		for _, d := range ladderMetrics {
			res.Metrics[d.Name] = driverMetric{r.Ladder[d.Name], d.Unit}
		}
		for _, d := range counterMetrics {
			res.Metrics[d.Name] = driverMetric{w.Counters[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = driverMetric{w.EndToEnd[d.Name], d.Unit}
		}
	}
	return res
}

// driver is `-workload W -seconds S -trace T`: one workload, measured for
// S seconds. Untraced it reports the end-to-end metrics; traced it spends
// half the time untraced (the baseline of the tracing overhead) and half
// traced, after the ladder, and reports the per-layer metrics.
func driver(seed int64, name string, seconds int, traced bool) error {
	window := time.Duration(seconds) * time.Second
	p := plan{untraced: limit{window: window}}
	if traced {
		p = plan{untraced: limit{window: window / 2}, traced: limit{window: window / 2}}
	}
	rep, tr, err := run(seed, fullSizes, name, p)
	if err != nil {
		return err
	}
	rep.print()
	if traced {
		if err := tr.write(filepath.Join(outDir, "trace.json")); err != nil {
			return err
		}
	} else if w := rep.Workloads[0]; w.EndToEnd == nil {
		return fmt.Errorf("%s: no repetition succeeded: %s", name, w.FirstError)
	}
	res := rep.resultLine(rep.Workloads[0], traced)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "seed of every generated input")
	name := flag.String("workload", "", "run this one workload and print the result as a last-line JSON object")
	seconds := flag.Int("seconds", 10, "with -workload: how long to measure")
	traced := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	check := flag.Bool("selfcheck", false, "run two full sets and fail if any end-to-end pair disagrees beyond its bound")
	flag.Parse()

	var err error
	switch {
	case *name != "":
		err = driver(*seed, *name, *seconds, *traced != 0)
	case *check:
		err = selfcheck(*seed)
	default:
		err = suite(*seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
