package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adlb"
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
// Per pipeline: 3 one-id subscribes, 3 one-row chunk loads, 3 result
// stores, 1 container insert — 10 — plus main's literal_float store and
// insert per xs member — 2. No scalar TD is created: a, c, out's member
// and the literals come into being at their first subscribe or store, so
// the only creates are the containers xs and out.
// Notifications are bounded, not exact: a rule registered after its input
// already closed learns so from the subscribe's answer and gets none.
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
	t.Logf("per leaf (%d leaves): data ops %.3f, rules %.3f, control %.3f, notifications %.3f, puts %.3f",
		res.LeafTasks, float64(a.DataOps)/leaves, float64(ts.RulesCreated.Load())/leaves,
		float64(res.ControlTasks)/leaves, float64(ts.Notifications.Load())/leaves, float64(a.PutsLocal)/leaves)
	t.Logf("data ops by kind: %+v", a)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"leaf tasks", res.LeafTasks, 3*n + 2},
		{"adlb.DataOps", a.DataOps, 12*n + 19},
		{"adlb.OpCreate", a.OpCreate, 2},
		{"adlb.OpStore", a.OpStore, 4*n + 2},
		{"adlb.OpSubscribe", a.OpSubscribe, 3*n + 5},
		{"adlb.OpChunkLoad", a.OpChunkLoad, 3*n + 2},
		{"adlb.OpInsert", a.OpInsert, 2 * n},
		{"adlb.OpRetrieve", a.OpRetrieve, 1},
		{"adlb.OpWriteRefcount", a.OpWriteRefcount, 4},
		{"adlb.OpEnumerate", a.OpEnumerate, 3},
		{"adlb.PutsLocal", a.PutsLocal, 3*n + 2},
		{"turbine.RulesCreated", ts.RulesCreated.Load(), 3*n + 5},
		{"turbine.ControlTasks", res.ControlTasks, 3},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got, max := ts.Notifications.Load(), int64(3*n+4); got > max || got != a.Notifications {
		t.Errorf("engine saw %d notifications, servers sent %d; want equal and at most %d", got, a.Notifications, max)
	}
}
