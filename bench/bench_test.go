package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the declaration table: names, units, directions and
// bounds equal, names well-formed and used once.
func TestDeclarationsEqualBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.Workloads, workloadDecls) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", bf.Workloads, workloadDecls)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bf.PerLayer, perLayer())
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDecl(nil), bf.EndToEnd...), bf.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

func names(ds []metricDecl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// One tiny run of the whole suite: every workload passes its oracle and
// emits each declared metric exactly once, on both passes and in the
// driver's result lines.
func TestTinySuiteEmitsEveryDeclaredMetric(t *testing.T) {
	rep, tr, err := run(7, tinySizes, "", plan{untraced: limit{rounds: 2}, traced: limit{rounds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed := rep.totals(); failed != 0 || attempted == 0 {
		for _, w := range rep.Workloads {
			if w.FirstError != "" {
				t.Errorf("%s: %s", w.Name, w.FirstError)
			}
		}
		t.Fatalf("attempted %d, failed %d, ladder errors %v", attempted, failed, rep.LadderErrors)
	}
	if got, want := len(rep.Workloads), len(workloadDecls); got != want {
		t.Fatalf("%d workloads ran, %d declared", got, want)
	}
	if got, want := sortedKeys(rep.Ladder), names(ladderMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("ladder emitted %v, declared %v", got, want)
	}
	for i, w := range rep.Workloads {
		if w.Name != workloadDecls[i].Name {
			t.Errorf("workload %d is %s, declared %s", i, w.Name, workloadDecls[i].Name)
		}
		if got, want := sortedKeys(w.EndToEnd), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end emitted %v, declared %v", w.Name, got, want)
		}
		if got, want := sortedKeys(w.Counters), names(counterMetrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counters emitted %v, declared %v", w.Name, got, want)
		}
		for name, v := range w.EndToEnd {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, name, v)
			}
		}
		for _, traced := range []bool{false, true} {
			want := names(endToEnd)
			if traced {
				want = names(perLayer())
			}
			res := rep.resultLine(w, traced)
			got := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: result line carries %v, declared %v", w.Name, traced, got, want)
			}
		}
	}
	// Every span closed, and layers attributed by module name.
	self := tr.selfByLayer()
	for _, layer := range []string{"stc", "core", "serve", "adlb", "mpi", "lang", "tcl", "chunk", "blob", "bench"} {
		if self[layer] <= 0 {
			t.Errorf("no self time recorded for layer %s", layer)
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed int64) program{
		"ensemble_small":        func(s int64) program { return genEnsembleSmall(s, 20) },
		"ensemble_compute":      func(s int64) program { return genEnsembleCompute(s, tinySizes) },
		"vector_scatter_gather": func(s int64) program { return genVector(s, 16, 2) },
		"blob_pipeline":         func(s int64) program { return genBlob(s, 4096, 3) },
		"balance_sleep":         func(s int64) program { return genSleep(s, 16) },
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if a.src != b.src || a.want != b.want {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if a.src == c.src || a.want == c.want {
			t.Errorf("%s: a second seed left the inputs unchanged", name)
		}
	}
	body := func(seed int64) []byte {
		sched, err := genSchedule(rngFor(seed, "serve_frags/0"), 30, 256)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, s := range sched {
			all = append(all, s.body(nil, 0.5)...)
		}
		return all
	}
	if string(body(1)) != string(body(1)) || string(body(1)) == string(body(2)) {
		t.Error("serve_frags: schedule is not a function of the seed alone")
	}
}

func TestSpanSelfTimesSumToParent(t *testing.T) {
	tr := newTracer()
	root := tr.root("bench.rep", "w", 0)
	a := tr.begin(root, "core.RunCompiled")
	a1 := tr.begin(a, "stc.Compile")
	time.Sleep(time.Millisecond)
	tr.end(a1)
	tr.end(a)
	// Two overlapping children on their own lanes, as concurrent clients are.
	b1 := tr.beginLane(root, "serve.http_frag", 1)
	b2 := tr.beginLane(root, "serve.http_frag", 2)
	time.Sleep(time.Millisecond)
	tr.end(b1)
	tr.end(b2)
	open := tr.begin(root, "adlb.never_closed")
	_ = open
	tr.end(root)

	self := selfTimes(tr.spans)
	for i, d := range self {
		if d < 0 {
			t.Errorf("span %d (%s): self time %v", i, tr.spans[i].name, d)
		}
	}
	dur := func(id spanID) time.Duration { return tr.spans[id].end - tr.spans[id].start }
	if got := self[a] + dur(a1); got != dur(a) {
		t.Errorf("child and self sum to %v, parent lasted %v", got, dur(a))
	}
	// Overlapping children are covered once: root's self plus the union.
	union := tr.spans[b2].end - tr.spans[b1].start
	if got := self[root] + dur(a) + union; got != dur(root) {
		t.Errorf("root self %v + children %v + %v != %v", self[root], dur(a), union, dur(root))
	}
	if self[open] != 0 {
		t.Errorf("a span never closed reports self time %v", self[open])
	}
	if layerOf("core.RunCompiled empty") != "core" {
		t.Error("layer is the name before the first dot")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v", v)
	}
	if _, err := percentile(xs, 99.9); err == nil {
		t.Error("p99.9 of 1000 samples was not refused")
	}
	if v, read := tail(xs[:50], 99); read != 50 || v != 24.5 {
		t.Errorf("tail of 50 samples = %v at p%v, want the median", v, read)
	}
}

// spread must be the figure the acceptance rule computes:
// statistics.quantiles(values, n=4), third minus first, over the median.
func TestSpreadIsPythonsExclusiveQuartiles(t *testing.T) {
	xs := []float64{12, 9.5, 10, 10.5, 11, 9, 13, 10.2, 10.8, 9.9}
	// statistics.quantiles(xs, n=4) -> [9.8, 10.35, 11.25]
	want := (11.25 - 9.8) / 10.35
	if got := spread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
