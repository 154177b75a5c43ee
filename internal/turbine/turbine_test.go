package turbine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/tcl"
)

// recorder collects strings from any rank through a registered command.
type recorder struct {
	mu   sync.Mutex
	rows []string
}

func (r *recorder) add(s string) {
	r.mu.Lock()
	r.rows = append(r.rows, s)
	r.mu.Unlock()
}

func (r *recorder) sorted() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.rows...)
	sort.Strings(out)
	return out
}

// runTurbine executes a Turbine program on a fresh world, with
// test::record and test::rank (the calling rank) registered on every rank.
func runTurbine(t *testing.T, size int, cfg *Config) *recorder {
	t.Helper()
	rec := &recorder{}
	userSetup := cfg.Setup
	cfg.Setup = func(in *tcl.Interp, env *Env) error {
		in.RegisterCommand("test::record", func(in *tcl.Interp, args []string) (string, error) {
			rec.add(strings.Join(args[1:], " "))
			return "", nil
		})
		in.RegisterCommand("test::rank", func(in *tcl.Interp, args []string) (string, error) {
			return strconv.Itoa(env.Rank), nil
		})
		if userSetup != nil {
			return userSetup(in, env)
		}
		return nil
	}
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(30*time.Second, func() {
		w.Abort(fmt.Errorf("turbine test watchdog: hung"))
	})
	defer watchdog.Stop()
	if err := w.Run(func(c *mpi.Comm) error { return Run(c, cfg) }); err != nil {
		t.Fatal(err)
	}
	return rec
}

// script compiles hand-written Turbine code for Config.ProgramScript.
func script(t *testing.T, src string) *tcl.Script {
	t.Helper()
	s, err := tcl.CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Engines: 0, Servers: 1},
		{Engines: 1, Servers: 0},
		{Engines: 2, Servers: 2}, // no room for workers in size 4
	}
	for i, cfg := range bad {
		if err := cfg.Validate(4); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	good := Config{Engines: 1, Servers: 1}
	if err := good.Validate(3); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRoleOf(t *testing.T) {
	cfg := Config{Engines: 2, Servers: 2}
	// World of 8: ranks 0,1 engines; 2..5 workers; 6,7 servers.
	wantRoles := []Role{RoleEngine, RoleEngine, RoleWorker, RoleWorker, RoleWorker, RoleWorker, RoleServer, RoleServer}
	for r, want := range wantRoles {
		if got := cfg.RoleOf(r, 8); got != want {
			t.Errorf("rank %d: role %v, want %v", r, got, want)
		}
	}
}

func TestDataflowSingleRule(t *testing.T) {
	// Engine creates a future; a worker task stores it; the rule fires
	// and records the value.
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set x [turbine::allocate integer]
				turbine::rule [list $x] "fire $x"
				turbine::rule [list] "turbine::store_integer $x 42" type work
			}
			proc fire {x} {
				test::record "got [turbine::value integer $x]"
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 3, cfg)
	rows := rec.sorted()
	if len(rows) != 1 || rows[0] != "got 42" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRuleOrderingIsDataflow(t *testing.T) {
	// Rules fire by data availability, not creation order: a rule created
	// first but fed last must fire last.
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set a [turbine::allocate integer]
				set b [turbine::allocate integer]
				turbine::rule [list $a] "test::record A"
				turbine::rule [list $b] "test::record B ; turbine::store_integer $a 1"
				turbine::rule [list] "turbine::store_integer $b 1" type work
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 3, cfg)
	rec.mu.Lock()
	rows := append([]string(nil), rec.rows...)
	rec.mu.Unlock()
	if len(rows) != 2 || rows[0] != "B" || rows[1] != "A" {
		t.Fatalf("rows = %v, want [B A]", rows)
	}
}

func TestFig1Pipeline(t *testing.T) {
	// The paper's Fig. 1: foreach i in [0:9] { t=f(i); g(t) } with f and
	// g as leaf tasks on workers and dataflow linking each pair.
	cfg := &Config{
		Engines: 1, Servers: 1,
		TurbineStats: &Stats{},
		ProgramScript: script(t, `
			proc main {} {
				for {set i 0} {$i < 10} {incr i} {
					set t [turbine::allocate integer]
					set u [turbine::allocate integer]
					turbine::rule [list] "f_task $i $t" type work
					turbine::rule [list $t] "g_stage $t $u"
					turbine::rule [list $u] "done_stage $u"
				}
			}
			proc f_task {i t} {
				turbine::store_integer $t [expr {$i * 2}]
			}
			proc g_stage {t u} {
				turbine::rule [list] "g_task $t $u" type work
			}
			proc g_task {t u} {
				set v [turbine::value integer $t]
				turbine::store_integer $u [expr {$v + 1}]
			}
			proc done_stage {u} {
				test::record "g=[turbine::value integer $u]"
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 6, cfg) // 1 engine + 1 server + 4 workers
	rows := rec.sorted()
	if len(rows) != 10 {
		t.Fatalf("expected 10 results, got %d: %v", len(rows), rows)
	}
	want := map[string]bool{}
	for i := 0; i < 10; i++ {
		want[fmt.Sprintf("g=%d", i*2+1)] = true
	}
	for _, r := range rows {
		if !want[r] {
			t.Fatalf("unexpected row %q", r)
		}
	}
	if cfg.TurbineStats.LeafTasks.Load() != 20 { // 10 f + 10 g
		t.Fatalf("leaf tasks = %d, want 20", cfg.TurbineStats.LeafTasks.Load())
	}
	if cfg.TurbineStats.RulesCreated.Load() < 20 {
		t.Fatalf("rules = %d, want >= 20", cfg.TurbineStats.RulesCreated.Load())
	}
}

func TestSpawnDistributesControl(t *testing.T) {
	// Control fragments released with turbine::spawn may run on any
	// engine; with 2 engines both should see work for a wide fan-out.
	cfg := &Config{
		Engines: 2, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				for {set i 0} {$i < 40} {incr i} {
					turbine::spawn "frag $i"
				}
			}
			proc frag {i} {
				test::record "frag $i on [test::rank]"
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 5, cfg)
	rows := rec.sorted()
	if len(rows) != 40 {
		t.Fatalf("expected 40 fragments, got %d", len(rows))
	}
}

func TestContainersAndEnumerate(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set c [turbine::allocate container]
				# Three members, inserted before they are stored.
				foreach i {0 1 2} {
					set m [turbine::allocate integer]
					turbine::container_insert $c $i $m
					turbine::rule [list] "turbine::store_integer $m [expr {$i * 100}]" type work
				}
				# Close the container (drop the creation reference).
				turbine::write_refcount $c -1
				turbine::rule [list $c] "walk $c"
			}
			proc walk {c} {
				foreach {sub m} [turbine::container_enumerate $c] {
					if {[turbine::container_lookup $c $sub] ne $m} { error "lookup of $sub disagrees" }
					turbine::rule [list $m] "test::record elem $sub \[turbine::value integer $m\]"
				}
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 3, cfg)
	rows := rec.sorted()
	want := []string{"elem 0 0", "elem 1 100", "elem 2 200"}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

func TestTargetedLeafTask(t *testing.T) {
	// A rule with an explicit target must run its leaf task on that rank.
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				turbine::rule [list] "test::record task-on-\[test::rank\]" type work target 2
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 5, cfg) // workers are ranks 1..3
	rows := rec.sorted()
	if len(rows) != 1 || rows[0] != "task-on-2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLiteralHelpers(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set i [turbine::literal_integer 7]
				set f [turbine::literal_float 2.5]
				set s [turbine::literal_string hello]
				test::record [turbine::value integer $i]
				test::record [turbine::value float $f]
				test::record [turbine::value string $s]
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 3, cfg)
	rows := rec.sorted()
	want := []string{"2.5", "7", "hello"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
}

func TestValueReadsTDsAndImmediatesAlike(t *testing.T) {
	// turbine::value answers for an immediate exactly what it answers for
	// a literal TD of the same value, and pays the data store only for
	// the TD.
	stats := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 1, Stats: stats,
		ProgramScript: script(t, `
			proc main {} {
				foreach {typ text} {integer 7 integer -12 float 2.5 float 3.0 float 1e+21 float 0.1
						string hello string {a $b} string {} string i:5} {
					set td [turbine::literal_$typ $text]
					set before [test::dataops]
					set viaTD [turbine::value $typ $td]
					set mid [test::dataops]
					set viaImm [turbine::value $typ [string index $typ 0]:$text]
					test::record [list $typ $viaTD $viaImm [expr {$mid - $before}] [expr {[test::dataops] - $mid}]]
				}
				# An integer promotes where a float is wanted, from a TD as
				# from an immediate.
				test::record promoted [turbine::value float [turbine::literal_integer 3]] [turbine::value float i:3]
				foreach bad {{blob s:xyz} {container i:1} {integer f:1.5} {integer f:3.0} {string i:3} {integer x:1} {integer {}}} {
					if {![catch {turbine::value {*}$bad} msg]} { test::record "no error for $bad" }
				}
			}
		`),
		Main: "main",
		Setup: func(in *tcl.Interp, env *Env) error {
			in.RegisterCommand("test::dataops", func(*tcl.Interp, []string) (string, error) {
				return fmtInt(stats.DataOps.Load()), nil
			})
			return nil
		},
	}
	got := runTurbine(t, 3, cfg).sorted()
	want := []string{
		"promoted 3.0 3.0",
		"float 0.1 0.1 1 0", "float 1e+21 1e+21 1 0", "float 2.5 2.5 1 0", "float 3.0 3.0 1 0",
		"integer -12 -12 1 0", "integer 7 7 1 0",
		"string hello hello 1 0", "string i:5 i:5 1 0", "string {a $b} {a $b} 1 0", "string {} {} 1 0",
	}
	sort.Strings(want)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("rows = %q\nwant   %q", got, want)
	}
}

func TestFloatsReadOneWayAsTDOrImmediate(t *testing.T) {
	// A float reads through turbine::value exactly as lang renders it,
	// whether it sits in a TD or rides the action as an immediate: one
	// float-to-text rule, edge values included.
	texts := []string{"0.1", "2", "-0.0", "1e21", "5e-324", "1.7976931348623157e308",
		"9007199254740993", "NaN", "+Inf", "-Inf"}
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				foreach text {`+strings.Join(texts, " ")+`} {
					set td [turbine::literal_float $text]
					test::record [list $text [turbine::value float $td] [turbine::value float f:$text]]
				}
			}
		`),
		Main: "main",
	}
	rows := runTurbine(t, 3, cfg).sorted()
	if len(rows) != len(texts) {
		t.Fatalf("rows = %q", rows)
	}
	for _, row := range rows {
		words, err := tcl.ParseList(row)
		if err != nil || len(words) != 3 {
			t.Fatalf("row %q: %v", row, err)
		}
		f, _ := strconv.ParseFloat(words[0], 64)
		want := lang.Float(f).Render()
		if words[1] != want || words[2] != want {
			t.Errorf("%s: TD reads %q, immediate %q; want %q", words[0], words[1], words[2], want)
		}
		back, err := strconv.ParseFloat(want, 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(f) && !(math.IsNaN(f) && math.IsNaN(back)) {
			t.Errorf("%s: %q does not read back as the same float (%v, %v)", words[0], want, back, err)
		}
	}
}

func TestTypedRetrieveMismatch(t *testing.T) {
	// turbine::value reads a TD as its own type, or an integer as a
	// float; every other mismatch is an error.
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set i [turbine::literal_integer 7]
				set f [turbine::literal_float 2.5]
				set s [turbine::literal_string 7]
				foreach {typ td} [list string $i blob $i void $i integer $f string $f integer $s float $s] {
					if {[catch {turbine::value $typ $td} msg]} {
						test::record "error caught"
					} else {
						test::record "read $td as $typ"
					}
				}
			}
		`),
		Main: "main",
	}
	rows := runTurbine(t, 3, cfg).sorted()
	if len(rows) != 7 || strings.Count(strings.Join(rows, "|"), "error caught") != 7 {
		t.Fatalf("rows = %v, want 7 errors", rows)
	}
}

// TestStallNamesRulesByAction: a rule on a TD nobody stores ends the run
// with an error naming the rule by its action text.
func TestStallNamesRulesByAction(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set x [turbine::allocate integer]
				turbine::rule [list $x] [list test::never $x] type work
			}
		`),
		Main: "main",
	}
	w, _ := mpi.NewWorld(3)
	watchdog := time.AfterFunc(30*time.Second, func() { w.Abort(fmt.Errorf("hang")) })
	defer watchdog.Stop()
	err := w.Run(func(c *mpi.Comm) error { return Run(c, cfg) })
	if err == nil || !strings.Contains(err.Error(), "stalled on 1 unfilled TD") ||
		!strings.Contains(err.Error(), `stalled rules: ["test::never `) {
		t.Fatalf("err = %v, want the stalled rule named by its action", err)
	}
}

func TestLeafTaskErrorAbortsRun(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				turbine::rule [list] "error deliberate-task-failure" type work
			}
		`),
		Main: "main",
	}
	w, _ := mpi.NewWorld(3)
	watchdog := time.AfterFunc(30*time.Second, func() { w.Abort(fmt.Errorf("hang")) })
	defer watchdog.Stop()
	cfg.Setup = func(in *tcl.Interp, env *Env) error { return nil }
	err := w.Run(func(c *mpi.Comm) error { return Run(c, cfg) })
	if err == nil || !strings.Contains(err.Error(), "deliberate-task-failure") {
		t.Fatalf("err = %v, want leaf task failure", err)
	}
}

func TestDoubleStoreAbortsRun(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set x [turbine::literal_integer 1]
				turbine::store_integer $x 2
			}
		`),
		Main: "main",
	}
	w, _ := mpi.NewWorld(3)
	watchdog := time.AfterFunc(30*time.Second, func() { w.Abort(fmt.Errorf("hang")) })
	defer watchdog.Stop()
	err := w.Run(func(c *mpi.Comm) error { return Run(c, cfg) })
	if err == nil || !strings.Contains(err.Error(), "single-assignment") {
		t.Fatalf("err = %v, want single-assignment violation", err)
	}
}

func TestBlobThroughDataStore(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set b [turbine::allocate blob]
				turbine::rule [list] "turbine::store_blob $b binary-payload" type work
				turbine::rule [list $b] "test::record blob=\[turbine::value blob $b\]"
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 3, cfg)
	rows := rec.sorted()
	if len(rows) != 1 || rows[0] != "blob=binary-payload" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestVoidSignalling(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set done [turbine::allocate void]
				turbine::rule [list $done] "test::record signalled"
				turbine::rule [list] "turbine::store_void $done {}" type work
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 3, cfg)
	rows := rec.sorted()
	if len(rows) != 1 || rows[0] != "signalled" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestManyWorkersLoadBalance(t *testing.T) {
	// 50 independent leaf tasks across 6 workers: all complete, and at
	// least two distinct workers participate (load balancing).
	var mu sync.Mutex
	ranks := map[string]int{}
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				for {set i 0} {$i < 50} {incr i} {
					turbine::rule [list] "test::rank_record" type work
				}
			}
		`),
		Main: "main",
		Setup: func(in *tcl.Interp, env *Env) error {
			in.RegisterCommand("test::rank_record", func(in *tcl.Interp, args []string) (string, error) {
				mu.Lock()
				ranks[fmt.Sprint(env.Rank)]++
				mu.Unlock()
				return "", nil
			})
			return nil
		},
	}
	runTurbine(t, 8, cfg)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range ranks {
		total += n
	}
	if total != 50 {
		t.Fatalf("executed %d tasks, want 50 (per rank: %v)", total, ranks)
	}
	if len(ranks) < 2 {
		t.Fatalf("all tasks ran on one worker: %v", ranks)
	}
}

func TestMultiServerDataflow(t *testing.T) {
	// Same pipeline with 2 engines and 2 servers: exercises cross-server
	// notification forwarding and multi-engine control.
	stats := &adlb.Stats{}
	cfg := &Config{
		Engines: 2, Servers: 2,
		Stats: stats,
		ProgramScript: script(t, `
			proc main {} {
				for {set i 0} {$i < 20} {incr i} {
					turbine::spawn "stage_a $i"
				}
			}
			proc stage_a {i} {
				set t [turbine::allocate integer]
				turbine::rule [list] "compute $i $t" type work
				turbine::rule [list $t] "test::record r=\[turbine::value integer $t\]"
			}
			proc compute {i t} {
				turbine::store_integer $t [expr {$i * $i}]
			}
		`),
		Main: "main",
	}
	rec := runTurbine(t, 8, cfg)
	rows := rec.sorted()
	if len(rows) != 20 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	want := map[string]bool{}
	for i := 0; i < 20; i++ {
		want[fmt.Sprintf("r=%d", i*i)] = true
	}
	for _, r := range rows {
		if !want[r] {
			t.Fatalf("unexpected row %q", r)
		}
	}
}

func TestValueFormatting(t *testing.T) {
	if fmtInt(-5) != "-5" {
		t.Fatal("fmtInt")
	}
	if _, err := parseInt("abc"); err == nil {
		t.Fatal("parseInt should fail")
	}
	if v, err := parseInt(" 42 "); err != nil || v != 42 {
		t.Fatal("parseInt trim")
	}
}
