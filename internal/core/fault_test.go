package core

// Chaos regression matrix for the fault-tolerance layer: engine panics
// contained mid-ensemble, workers killed mid-task, retry budgets
// exhausted into poisoned-task errors, and the hang watchdog — all
// deterministic via internal/faultinject (run under -race in CI's chaos
// job).

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/faultinject"
)

// ensemble16 is the acceptance ensemble: 16 independent python leaf
// tasks, each squaring its index through the typed call path.
const ensemble16 = `
	foreach i in [0:15] {
		string s = python("v = argv1 * argv1", "v", i);
		printf("%s", s);
	}
`

func wantSquares(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprint(i*i))
	}
	sort.Strings(out)
	return out
}

func sortedLines(s string) []string {
	lines := strings.Fields(strings.TrimSpace(s))
	sort.Strings(lines)
	return lines
}

func expectSquares(t *testing.T, stdout string, n int) {
	t.Helper()
	got := sortedLines(stdout)
	want := wantSquares(n)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("ensemble output wrong:\n got %v\nwant %v", got, want)
	}
}

func TestChaosEnginePanicMidEnsemble(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// The 3rd python fragment evaluated anywhere in the run panics inside
	// the engine; containment must fail that one task, reset the engine,
	// and retry — no process death, no lost results.
	faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{
		Hit: 3, Action: faultinject.ActPanic, Msg: "injected interpreter crash",
	})
	res, err := Run(ensemble16, Config{Workers: 4})
	if err != nil {
		t.Fatalf("run failed instead of recovering: %v", err)
	}
	expectSquares(t, res.Stdout, 16)
	if res.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", res.TaskRetries)
	}
	if res.TaskFailures != 1 {
		t.Fatalf("TaskFailures = %d, want 1", res.TaskFailures)
	}
	if res.ADLB.Poisoned != 0 {
		t.Fatalf("Poisoned = %d, want 0", res.ADLB.Poisoned)
	}
}

// armWorkerCrash makes the first worker to receive a leaf task die
// holding it.
func armWorkerCrash() {
	faultinject.Arm(faultinject.SiteWorkerTask, faultinject.Plan{
		Hit: 1, Action: faultinject.ActCrash, Msg: "worker dies",
	})
}

// chain16 is 16 python leaves in a chain, each adding one to the one
// before's result, so one leaf at a time is runnable and every Get
// brings one: what a worker holds when it dies is its running task, and
// no share the schedule decides. It prints 1 to 16.
var chain16 = func() string {
	var b strings.Builder
	b.WriteString(`int x1 = python("", "1");` + "\n")
	for i := 2; i <= 16; i++ {
		fmt.Fprintf(&b, `int x%d = python("", "argv1 + 1", x%d);`+"\n", i, i-1)
	}
	for i := 1; i <= 16; i++ {
		fmt.Fprintf(&b, `printf("%%i", x%d);`+"\n", i)
	}
	return b.String()
}()

func TestChaosWorkerKilledMidTaskRunFinishes(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// One of the two workers dies on the first leaf task delivered. Its
	// leased task must be reclaimed, requeued, and finished by the
	// surviving worker.
	armWorkerCrash()
	res, err := Run(chain16, Config{Workers: 2})
	if err != nil {
		t.Fatalf("run failed instead of recovering: %v", err)
	}
	var want []string
	for i := 1; i <= 16; i++ {
		want = append(want, fmt.Sprint(i))
	}
	sort.Strings(want)
	if got := sortedLines(res.Stdout); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("chain output wrong:\n got %v\nwant %v", got, want)
	}
	if res.ADLB.LeasesReclaimed != 1 {
		t.Fatalf("LeasesReclaimed = %d, want 1", res.ADLB.LeasesReclaimed)
	}
	if res.TaskRetries < 1 {
		t.Fatalf("TaskRetries = %d, want >= 1", res.TaskRetries)
	}
}

func TestChaosRetryUntilPoisoned(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// Every evaluation of the fragment panics: the retry budget (default
	// 2) must run out and the task must be poisoned — surfaced as an
	// error naming the task, not a hang.
	faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{
		Hit: 1, Times: -1, Action: faultinject.ActPanic, Msg: "persistent interpreter crash",
	})
	stats := &adlb.Stats{}
	_, err := Run(`
		string s = python("v = 1", "v");
		printf("%s", s);
	`, Config{Workers: 2, Stats: stats})
	if err == nil {
		t.Fatal("expected a poisoned-task error, got clean run")
	}
	for _, want := range []string{"poisoned", "persistent interpreter crash", "python"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	snap := stats.Snapshot()
	if snap.Requeued != 2 || snap.Poisoned != 1 {
		t.Fatalf("Requeued = %d, Poisoned = %d; want 2, 1", snap.Requeued, snap.Poisoned)
	}
}

func TestChaosHangWatchdogWhenAllWorkersDie(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// The only worker dies mid-task: the requeued work can never run, and
	// the run must end with the watchdog's diagnostic, not a deadlock.
	armWorkerCrash()
	_, err := Run(ensemble16, Config{
		Workers:      1,
		WatchdogIdle: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("expected hang-watchdog diagnostic, got clean run")
	}
	if !strings.Contains(err.Error(), "hang detected") {
		t.Fatalf("error %q is not the watchdog diagnostic", err)
	}
	if !strings.Contains(err.Error(), "departed clients") {
		t.Fatalf("diagnostic %q does not list departed clients", err)
	}
}

func TestChaosInjectionSiteMatrix(t *testing.T) {
	cases := []struct {
		name        string
		site        faultinject.Site
		plan        faultinject.Plan
		wantErr     string // "" = run must recover cleanly
		wantRetries int64
	}{
		{
			name: "get-deliver delay is harmless",
			site: faultinject.SiteGetDeliver,
			plan: faultinject.Plan{Hit: 2, Times: 3, Action: faultinject.ActDelay, Delay: 2 * time.Millisecond},
		},
		{
			name:    "get-deliver error surfaces",
			site:    faultinject.SiteGetDeliver,
			plan:    faultinject.Plan{Hit: 1, Action: faultinject.ActError, Msg: "delivery fault"},
			wantErr: "delivery fault",
		},
		{
			name:    "targeted-put error surfaces",
			site:    faultinject.SitePutTargeted,
			plan:    faultinject.Plan{Hit: 1, Action: faultinject.ActError, Msg: "notify fault"},
			wantErr: "notify fault",
		},
		{
			name:        "eval-pre fault retries",
			site:        faultinject.SiteLangEvalPre,
			plan:        faultinject.Plan{Hit: 2, Action: faultinject.ActError, Msg: "eval fault"},
			wantRetries: 1,
		},
		{
			name:        "dataplane store fault retries",
			site:        faultinject.SiteDataPlaneStore,
			plan:        faultinject.Plan{Hit: 2, Action: faultinject.ActError, Msg: "store fault"},
			wantRetries: 1,
		},
		{
			name:        "worker crash mid-task recovers",
			site:        faultinject.SiteWorkerTask,
			plan:        faultinject.Plan{Hit: 1, Action: faultinject.ActCrash, Msg: "worker dies"},
			wantRetries: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Reset()
			faultinject.Arm(tc.site, tc.plan)
			res, err := Run(ensemble16, Config{Workers: 2})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error mentioning %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run failed instead of recovering: %v", err)
			}
			expectSquares(t, res.Stdout, 16)
			if res.TaskRetries < tc.wantRetries {
				t.Fatalf("TaskRetries = %d, want >= %d", res.TaskRetries, tc.wantRetries)
			}
			if faultinject.Hits(tc.site) == 0 {
				t.Fatalf("site %s was never hit", tc.site)
			}
		})
	}
}

func TestChaosRefcountBalanceAfterContainedPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// A container-heavy ensemble (scatter -> per-element python -> gather)
	// with one injected engine panic: recovery must leave no TD unfilled —
	// a leaked write refcount after the contained failure would hold a
	// container open forever and show up in the UnfilledTDs gauge.
	faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{
		Hit: 2, Action: faultinject.ActPanic, Msg: "injected crash under refcounts",
	})
	res, err := Run(`
		float xs[];
		foreach i in [0:7] {
			xs[i] = itof(i) * 0.5;
		}
		blob packed = vpack(xs);
		float ys[] = vunpack(packed);
		float sq[];
		foreach y, i in ys {
			sq[i] = python("", "argv1 * argv1", y);
		}
		blob packed2 = vpack(sq);
		float total = python("", "sum(argv1)", packed2);
		printf("%f", total);
	`, Config{Workers: 4})
	if err != nil {
		t.Fatalf("run failed instead of recovering: %v", err)
	}
	// sum((i*0.5)^2, i=0..7) = 0.25 * 140 = 35
	if !strings.Contains(res.Stdout, "35.000000") {
		t.Fatalf("stdout = %q, want the ensemble total 35.000000", res.Stdout)
	}
	if res.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", res.TaskRetries)
	}
	if res.ADLB.UnfilledTDs != 0 {
		t.Fatalf("UnfilledTDs = %d after recovery, want 0 (leaked write refcount)", res.ADLB.UnfilledTDs)
	}
}

func TestChaosEachEngineRecoversFromPanic(t *testing.T) {
	// One injected engine panic per embedded language: containment and
	// retry must be engine-agnostic (the conformance suite's languages
	// all flow through the same contained-eval path).
	engines := []struct {
		name string
		stmt string
	}{
		{"python", `string s = python("v = argv1 * argv1", "v", i);`},
		{"r", `string s = r("v <- argv1 * argv1", "v", i);`},
		{"julia", `string s = julia("v = argv1 * argv1", "v", i);`},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Reset()
			faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{
				Hit: 2, Action: faultinject.ActPanic, Msg: "injected " + eng.name + " crash",
			})
			res, err := Run(fmt.Sprintf(`
				foreach i in [0:7] {
					%s
					printf("%%s", s);
				}
			`, eng.stmt), Config{Workers: 2})
			if err != nil {
				t.Fatalf("%s run failed instead of recovering: %v", eng.name, err)
			}
			expectSquares(t, res.Stdout, 8)
			if res.TaskRetries != 1 {
				t.Fatalf("TaskRetries = %d, want 1", res.TaskRetries)
			}
		})
	}
}

// serverFiredChain is two python leaves, the second waiting on the
// first's output: the data server holds it until a is stored, then
// queues it with a's row.
const serverFiredChain = `
	float a = python("", "1.25");
	float b = python("", "argv1 * 2", a);
	printf("b=%.17g", b);
`

func TestChaosWorkerKilledHoldingServerFiredLeaf(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// The worker that leases the second leaf — the one the server fired
	// when a closed — dies holding it. The requeued item must carry a's
	// row again: the survivor loads nothing, and neither does the engine,
	// whose printf rule carries b's row.
	faultinject.Arm(faultinject.SiteWorkerTask, faultinject.Plan{
		Hit: 2, Action: faultinject.ActCrash, Msg: "worker dies",
	})
	res, err := Run(serverFiredChain, Config{Workers: 2})
	if err != nil {
		t.Fatalf("run failed instead of recovering: %v", err)
	}
	if got := strings.TrimSpace(res.Stdout); got != "b=2.5" {
		t.Fatalf("stdout = %q, want b=2.5", got)
	}
	a := res.ADLB
	if a.LeasesReclaimed != 1 || a.Requeued != 1 {
		t.Fatalf("LeasesReclaimed = %d, Requeued = %d; want 1, 1", a.LeasesReclaimed, a.Requeued)
	}
	if a.OpChunkLoad != 0 {
		t.Fatalf("OpChunkLoad = %d, want 0: the requeued leaf loaded its input", a.OpChunkLoad)
	}
}

func TestChaosStolenItemLoadsItsInputsFromTheirOwner(t *testing.T) {
	// Two servers: the engine and every TD live on server 0, the one
	// worker on server 1, so each leaf reaches the worker by a steal and
	// is delivered by a server that owns none of its inputs. The second
	// leaf loads a from its owner, the run's one chunk load: printf's
	// rule, delivered to the engine by b's owner, carries b's row.
	res, err := Run(serverFiredChain, Config{Engines: 1, Workers: 1, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(res.Stdout); got != "b=2.5" {
		t.Fatalf("stdout = %q, want b=2.5", got)
	}
	a := res.ADLB
	if a.ItemsStolen != res.LeafTasks || res.LeafTasks != 2 {
		t.Fatalf("ItemsStolen = %d, LeafTasks = %d; want both leaves stolen", a.ItemsStolen, res.LeafTasks)
	}
	if a.OpChunkLoad != 1 {
		t.Fatalf("OpChunkLoad = %d, want 1: the stolen leaf's load of a", a.OpChunkLoad)
	}
}
