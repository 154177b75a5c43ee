package stc

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// syncWriter is a goroutine-safe line sink shared by all ranks.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, l := range strings.Split(w.b.String(), "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// runSwift compiles src and executes it on a simulated world, returning
// the collected stdout lines (sorted, since rank interleaving is
// nondeterministic).
func runSwift(t *testing.T, src string, size, engines, servers int) []string {
	t.Helper()
	lines, err := tryRunSwift(src, size, engines, servers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func tryRunSwift(src string, size, engines, servers int, setup func(*tcl.Interp, *turbine.Env) error) ([]string, error) {
	out, err := Compile(src)
	if err != nil {
		return nil, err
	}
	script, err := out.Script()
	if err != nil {
		return nil, err
	}
	sink := &syncWriter{}
	cfg := &turbine.Config{
		Engines:       engines,
		Servers:       servers,
		ProgramScript: script,
		Main:          out.Main,
		Setup: func(in *tcl.Interp, env *turbine.Env) error {
			in.Out = sink
			if setup != nil {
				return setup(in, env)
			}
			return nil
		},
	}
	w, err := mpi.NewWorld(size)
	if err != nil {
		return nil, err
	}
	watchdog := time.AfterFunc(30*time.Second, func() {
		w.Abort(fmt.Errorf("stc test watchdog: run hung"))
	})
	defer watchdog.Stop()
	if err := w.Run(func(c *mpi.Comm) error { return turbine.Run(c, cfg) }); err != nil {
		return nil, err
	}
	lines := sink.lines()
	sort.Strings(lines)
	return lines, nil
}

func expectLines(t *testing.T, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d lines %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q want %q\nall: %v", i, got[i], want[i], got)
		}
	}
}

func TestCompileProducesProgram(t *testing.T) {
	out, err := Compile(`printf("hello");`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Main != "u:main" {
		t.Fatalf("main = %q", out.Main)
	}
	if !strings.Contains(out.Program, "proc u:main") {
		t.Fatal("missing main proc")
	}
	if !strings.Contains(out.Program, "proc sw:copy") {
		t.Fatal("missing prelude")
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("int x = "); err == nil {
		t.Fatal("parse error not propagated")
	}
	if _, err := Compile("int x = y;"); err == nil {
		t.Fatal("check error not propagated")
	}
}

func TestHelloWorld(t *testing.T) {
	got := runSwift(t, `printf("hello world");`, 3, 1, 1)
	expectLines(t, got, []string{"hello world"})
}

func TestArithmeticDataflow(t *testing.T) {
	got := runSwift(t, `
		int x = 2 + 3;
		int y = x * 10;
		printf("y=%i", y);
	`, 3, 1, 1)
	expectLines(t, got, []string{"y=50"})
}

func TestFloatsAndPromotion(t *testing.T) {
	got := runSwift(t, `
		float f = 1;       // int literal promoted
		float g = f + 0.5;
		printf("g=%f", g);
	`, 3, 1, 1)
	expectLines(t, got, []string{"g=1.500000"})
}

func TestStringOps(t *testing.T) {
	got := runSwift(t, `
		string a = "foo";
		string b = a + "bar";
		printf("%s %i", b, strlen(b));
	`, 3, 1, 1)
	expectLines(t, got, []string{"foobar 6"})
}

func TestBooleanAndComparison(t *testing.T) {
	got := runSwift(t, `
		boolean b = 3 < 5;
		if (b) { printf("lt"); } else { printf("geq"); }
		if (2 == 2 && !false) { printf("and"); }
	`, 3, 1, 1)
	expectLines(t, got, []string{"and", "lt"})
}

func TestIfElseChain(t *testing.T) {
	got := runSwift(t, `
		int x = 7;
		if (x < 5) { printf("small"); }
		else if (x < 10) { printf("medium"); }
		else { printf("large"); }
	`, 3, 1, 1)
	expectLines(t, got, []string{"medium"})
}

func TestCompositeFunction(t *testing.T) {
	got := runSwift(t, `
		(int o) double_it(int i) {
			o = i * 2;
		}
		int r = double_it(21);
		printf("r=%i", r);
	`, 3, 1, 1)
	expectLines(t, got, []string{"r=42"})
}

func TestCompositeChained(t *testing.T) {
	got := runSwift(t, `
		(int o) f(int i) { o = i + 1; }
		(int o) g(int i) { o = f(i) * 10; }
		printf("%i", g(4));
	`, 3, 1, 1)
	expectLines(t, got, []string{"50"})
}

func TestFig1Program(t *testing.T) {
	// The paper's Fig. 1 / §II-A example, with concrete f and g.
	got := runSwift(t, `
		(int o) f(int i) { o = i * 3; }
		(int o) g(int t) { o = t % 2; }
		foreach i in [0:9] {
			int t = f(i);
			if (g(t) == 0) { printf("g(%i)==0", t); }
		}
	`, 6, 1, 1)
	want := []string{}
	for i := 0; i <= 9; i++ {
		if (i*3)%2 == 0 {
			want = append(want, fmt.Sprintf("g(%d)==0", i*3))
		}
	}
	expectLines(t, got, want)
}

func TestForeachRange(t *testing.T) {
	got := runSwift(t, `
		foreach i in [1:5] {
			printf("i=%i", i);
		}
	`, 4, 1, 1)
	expectLines(t, got, []string{"i=1", "i=2", "i=3", "i=4", "i=5"})
}

func TestForeachRangeWithStep(t *testing.T) {
	got := runSwift(t, `
		foreach i in [0:10:3] {
			printf("i=%i", i);
		}
	`, 4, 1, 1)
	expectLines(t, got, []string{"i=0", "i=3", "i=6", "i=9"})
}

func TestForeachEmptyRange(t *testing.T) {
	got := runSwift(t, `
		foreach i in [5:1] {
			printf("never");
		}
		printf("done");
	`, 3, 1, 1)
	expectLines(t, got, []string{"done"})
}

func TestArrayLiteralAndIndex(t *testing.T) {
	got := runSwift(t, `
		int a[] = [10, 20, 30];
		printf("a1=%i", a[1]);
		printf("n=%i", size(a));
	`, 3, 1, 1)
	expectLines(t, got, []string{"a1=20", "n=3"})
}

func TestForeachArrayWithIndex(t *testing.T) {
	got := runSwift(t, `
		int a[] = [7, 8];
		foreach v, i in a {
			printf("%i:%i", i, v);
		}
	`, 3, 1, 1)
	expectLines(t, got, []string{"0:7", "1:8"})
}

func TestRangeAsArray(t *testing.T) {
	got := runSwift(t, `
		int r[] = [2:4];
		foreach v in r {
			printf("v=%i", v);
		}
		printf("len=%i", size(r));
	`, 3, 1, 1)
	expectLines(t, got, []string{"len=3", "v=2", "v=3", "v=4"})
}

func TestArrayBuiltByLoop(t *testing.T) {
	// The key write-refcount pattern: a[] filled inside a foreach, read
	// by another foreach after the container closes.
	got := runSwift(t, `
		int a[];
		foreach i in [0:4] {
			a[i] = i * i;
		}
		foreach v, i in a {
			printf("%i->%i", i, v);
		}
	`, 5, 1, 1)
	expectLines(t, got, []string{"0->0", "1->1", "2->4", "3->9", "4->16"})
}

func TestNestedLoops(t *testing.T) {
	got := runSwift(t, `
		foreach i in [0:1] {
			foreach j in [0:1] {
				printf("%i%i", i, j);
			}
		}
	`, 5, 1, 1)
	expectLines(t, got, []string{"00", "01", "10", "11"})
}

func TestTclTemplateFunction(t *testing.T) {
	// The paper's §III-A extension function example verbatim.
	src := `
		(int o) f(int i, int j)
		"my_package" "1.0"
		[ "set <<o>> [ f <<i>> <<j>> ]" ];
		int x = f(2, 3);
		printf("x=%i", x);
	`
	setup := func(in *tcl.Interp, env *turbine.Env) error {
		// Provide the Tcl package with proc f, as a user package would.
		_, err := in.Eval(`
			package provide my_package 1.0
			proc f {i j} { expr {$i * 10 + $j} }
		`)
		return err
	}
	lines, err := tryRunSwift(src, 4, 1, 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, []string{"x=23"})
}

func TestTemplateMultilineScript(t *testing.T) {
	src := `
		(string o) greet(string name)
		"greeting" "1.0"
		[ "set parts [list Hello <<name>>]\nset <<o>> [join $parts { }]" ];
		string s = greet("World");
		printf("%s", s);
	`
	lines, err := tryRunSwift(src, 4, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, []string{"Hello World"})
}

func TestTrace(t *testing.T) {
	got := runSwift(t, `trace(1, 2.5, "three");`, 3, 1, 1)
	expectLines(t, got, []string{"trace: 1,2.5,three"})
}

func TestConversions(t *testing.T) {
	got := runSwift(t, `
		printf("%s", toString(42));
		printf("%i", toInt("17"));
		printf("%f", toFloat("2.5"));
		printf("%i", ftoi(3.9));
		printf("%f", itof(2));
	`, 3, 1, 1)
	expectLines(t, got, []string{"42", "17", "2.500000", "3", "2.000000"})
}

func TestMathBuiltins(t *testing.T) {
	got := runSwift(t, `
		printf("%f", sqrt(16.0));
		printf("%f", floor(3.7));
		printf("%f", ceil(3.2));
		printf("%f", abs(0.0 - 5.0));
	`, 3, 1, 1)
	expectLines(t, got, []string{"4.000000", "3.000000", "4.000000", "5.000000"})
}

func TestStrcat(t *testing.T) {
	got := runSwift(t, `
		string s = strcat("a", "b", "c");
		printf("%s", s);
	`, 3, 1, 1)
	expectLines(t, got, []string{"abc"})
}

func TestMultiEngineMultiServer(t *testing.T) {
	// A wider run: 2 engines, 2 servers, 4 workers; 40 tasks.
	got := runSwift(t, `
		(int o) sq(int i) { o = i * i; }
		foreach i in [0:39] {
			printf("%i", sq(i));
		}
	`, 8, 2, 2)
	want := make([]string, 40)
	for i := range want {
		want[i] = fmt.Sprint(i * i)
	}
	expectLines(t, got, want)
}

func TestDeepDataflowChain(t *testing.T) {
	// x0 -> x1 -> ... -> x9 sequential dependency chain.
	var b strings.Builder
	b.WriteString("int x0 = 1;\n")
	for i := 1; i < 10; i++ {
		fmt.Fprintf(&b, "int x%d = x%d + 1;\n", i, i-1)
	}
	b.WriteString(`printf("%i", x9);`)
	got := runSwift(t, b.String(), 3, 1, 1)
	expectLines(t, got, []string{"10"})
}

func TestZeroOutputComposite(t *testing.T) {
	got := runSwift(t, `
		report(int i) {
			printf("report %i", i);
		}
		report(5);
	`, 3, 1, 1)
	expectLines(t, got, []string{"report 5"})
}

func TestIndexVarOverRangeIsTheOrdinal(t *testing.T) {
	// foreach v, i in [lo:hi:step]: i is v's position in the range, as it
	// is when the same range is first built as an array.
	for _, r := range []string{"[0:3]", "[10:40:10]", "[5:0:-1]", "[7:7]", "[3:2]", "[0:99:7]"} {
		direct := runSwift(t, `foreach v, i in `+r+` { printf("%i@%i", v, i); }`, 4, 2, 1)
		viaArray := runSwift(t, `int a[] = `+r+`; foreach v, i in a { printf("%i@%i", v, i); }`, 4, 2, 1)
		expectLines(t, direct, viaArray)
	}
	got := runSwift(t, `foreach v, i in [10:40:10] { printf("%i@%i", v, i); }`, 3, 1, 1)
	expectLines(t, got, []string{"10@0", "20@1", "30@2", "40@3"})
}

func TestRangeWithNegativeStep(t *testing.T) {
	// [0:5:-1] is empty (building it as an array used to spin forever
	// minting members) and [5:0:-1] counts down; the array and the loop
	// over the range agree on both.
	for _, tc := range []struct {
		rng  string
		want []string
	}{
		{"[0:5:-1]", nil},
		{"[5:0:-1]", []string{"v=5", "v=4", "v=3", "v=2", "v=1", "v=0"}},
		{"[5:0:-2]", []string{"v=5", "v=3", "v=1"}},
		{"[0:5:2]", []string{"v=0", "v=2", "v=4"}},
	} {
		loop := runSwift(t, `foreach v in `+tc.rng+` { printf("v=%i", v); }`, 3, 1, 1)
		expectLines(t, loop, tc.want)
		arr := runSwift(t, `int a[] = `+tc.rng+`; foreach v in a { printf("v=%i", v); } printf("n=%i", size(a));`, 3, 1, 1)
		expectLines(t, arr, append([]string{fmt.Sprintf("n=%d", len(tc.want))}, tc.want...))
	}
}

func TestTemplateUnknownSpliceRejected(t *testing.T) {
	_, err := Compile(`(int o) f(int i) "p" "1" [ "set <<o>> <<zzz>>" ]; int x = f(1);`)
	if err == nil || !strings.Contains(err.Error(), "unknown parameters") {
		t.Fatalf("err = %v", err)
	}
}

func TestGeneratedCodeIsValidTcl(t *testing.T) {
	// The generated program must at least parse and load into a bare
	// interpreter (every turbine command a rank registers stubbed out).
	out, err := Compile(`
		(int o) f(int i) { o = i; }
		int a[] = [1, 2, 3];
		foreach v in a {
			if (v > 1) { printf("%i", f(v)); }
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	in := tcl.New()
	stub := func(in *tcl.Interp, args []string) (string, error) { return "0", nil }
	for cmd := range registeredVocabulary(t) {
		in.RegisterCommand("turbine::"+cmd, stub)
	}
	if _, err := in.Eval(out.Program); err != nil {
		t.Fatalf("generated program does not load: %v\n----\n%s", err, out.Program)
	}
	if _, err := in.Eval(out.Main); err != nil {
		t.Fatalf("generated main does not run: %v", err)
	}
}

func TestInterlanguageCallsCompileToTypedDispatch(t *testing.T) {
	// An interlanguage leaf call's action is the typed dispatch command
	// itself (the action carries operands and <name>::call moves TD values
	// through the data plane), never the string-rendering sw:leaf path and
	// never a prelude trampoline.
	out, err := Compile(`
		blob v = blob_from_string("x");
		blob w = python("", "argv1", v);
		string s = tcl("set argv1", w);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Program, "[list python::call ") {
		t.Fatal("python call not compiled to python::call")
	}
	if !strings.Contains(out.Program, "[list tcl::call ") {
		t.Fatal("tcl call not compiled to tcl::call")
	}
	if strings.Contains(out.Program, "sw:leaf python") || strings.Contains(out.Program, "sw:leaf tcl") ||
		strings.Contains(out.Program, "sw:leafcall") {
		t.Fatal("interlanguage call still routed through a prelude proc")
	}
	// The blob builtins keep the string path.
	if !strings.Contains(out.Program, "sw:leaf blob_from_string") {
		t.Fatal("blob_from_string no longer routed through sw:leaf")
	}
}

// bridgeProgram crosses the container<->vector bridge both ways.
const bridgeProgram = `
	float xs[];
	foreach i in [0:7] { xs[i] = itof(i); }
	blob v = vpack(xs);
	float ys[] = vunpack(v);
	int zs[] = vunpack(v);
`

func TestContainerVectorBridgeCompilesToBatchedActions(t *testing.T) {
	// vpack/vunpack compile to sw:vpack/sw:vunpack actions carrying TD
	// ids and the element type only — phase 1 of vpack runs engine-side
	// (it registers the member-wait rule), the gather and the scatter run
	// as worker leaf tasks on the batched data plane.
	out, err := Compile(bridgeProgram)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Program, "sw:vpack ") {
		t.Fatal("vpack not compiled to sw:vpack")
	}
	if !strings.Contains(out.Program, "float") || !strings.Contains(out.Program, "sw:vunpack") {
		t.Fatal("vunpack not compiled to sw:vunpack")
	}
	// The element type rides in the action: float for xs/ys, integer for
	// the int-context unpack.
	for _, frag := range []string{"sw:vunpack", "float", "integer"} {
		if !strings.Contains(out.Program, frag) {
			t.Fatalf("generated program missing %q", frag)
		}
	}
	vun := regexp.MustCompile(`sw:vunpack \$\w+ (float|integer) \$\w+`)
	if got := len(vun.FindAllString(out.Program, -1)); got != 2 {
		t.Fatalf("found %d sw:vunpack actions, want 2\n%s", got, out.Program)
	}
	if !strings.Contains(out.Program, `] type work`) {
		t.Fatal("bridge leaf phases not released as worker tasks")
	}
}

func TestVpackActionNamesOnlyTheContainer(t *testing.T) {
	// The leaf task released for vpack carries three words — output,
	// element type, container — however many members there are: the
	// worker enumerates the container itself.
	var mu sync.Mutex
	var actions [][]string
	setup := func(in *tcl.Interp, env *turbine.Env) error {
		in.RegisterCommand("test::saw", func(in *tcl.Interp, args []string) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			actions = append(actions, append([]string(nil), args[1:]...))
			return "", nil
		})
		_, err := in.Eval(`
			rename turbine::vpack_gather test::gather
			proc turbine::vpack_gather {args} { test::saw {*}$args; test::gather {*}$args }
		`)
		return err
	}
	lines, err := tryRunSwift(`
		float xs[];
		foreach i in [0:199] { xs[i] = itof(i); }
		blob v = vpack(xs);
		printf("bytes=%i", blob_size(v));
	`, 4, 1, 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, []string{"bytes=1600"})
	if len(actions) != 1 || len(actions[0]) != 3 || actions[0][1] != "float" {
		t.Fatalf("vpack leaf actions = %v, want one of <out> float <container>", actions)
	}
	for _, w := range []string{actions[0][0], actions[0][2]} {
		if _, err := strconv.ParseInt(w, 10, 64); err != nil {
			t.Fatalf("vpack leaf action %v: %q is not a single TD id", actions[0], w)
		}
	}
}

func TestJoinArray(t *testing.T) {
	got := runSwift(t, `
		int a[] = [3, 1, 2];
		string joined = join_array(a, ",");
		printf("j=%s", joined);
	`, 3, 1, 1)
	expectLines(t, got, []string{"j=3,1,2"})
}

func TestJoinArrayFromLoop(t *testing.T) {
	// Elements written asynchronously by a foreach; join must wait for
	// both container close and every member value.
	got := runSwift(t, `
		int a[];
		foreach i in [0:3] {
			a[i] = i * 10;
		}
		printf("j=%s", join_array(a, "+"));
	`, 5, 1, 1)
	expectLines(t, got, []string{"j=0+10+20+30"})
}

// size and join_array on the whole-array path (turbine::rule_members,
// container_size, container_values): an empty array, one large enough
// that any per-member RPC or text would show, and one whose members are
// provably still open when the container closes.

func TestJoinAndSizeOfEmptyArray(t *testing.T) {
	got := runSwift(t, `
		int a[];
		foreach i in [1:0] { a[i] = i; }
		printf("j=<%s> n=%i", join_array(a, ","), size(a));
	`, 3, 1, 1)
	expectLines(t, got, []string{"j=<> n=0"})
}

func TestJoinAndSizeOfLargeArray(t *testing.T) {
	got := runSwift(t, `
		int a[] = [0:4999];
		printf("n=%i", size(a));
		printf("j=%s", join_array(a, ","));
	`, 3, 1, 1)
	elems := make([]string, 5000)
	for i := range elems {
		elems[i] = strconv.Itoa(i)
	}
	expectLines(t, got, []string{"n=5000", "j=" + strings.Join(elems, ",")})
}

func TestJoinWaitsForMembersClosingAfterContainer(t *testing.T) {
	// slow() blocks until gate() runs, and gate() needs size(a), which
	// needs the container closed: every member closes after its
	// container, and join_array must wait for each of them.
	release := make(chan struct{})
	setup := func(in *tcl.Interp, env *turbine.Env) error {
		in.RegisterCommand("test::slow", func(in *tcl.Interp, args []string) (string, error) {
			<-release
			return args[1] + "0", nil
		})
		in.RegisterCommand("test::gate", func(in *tcl.Interp, args []string) (string, error) {
			close(release)
			return args[1], nil
		})
		return nil
	}
	lines, err := tryRunSwift(`
		(int o) slow(int i) "test" "1.0" [ "set <<o>> [test::slow <<i>>]" ];
		(int o) gate(int n) "test" "1.0" [ "set <<o>> [test::gate <<n>>]" ];
		int a[];
		a[0] = slow(1);
		a[1] = slow(2);
		a[2] = slow(3);
		int n = gate(size(a));
		printf("j=%s n=%i", join_array(a, "-"), n);
	`, 6, 1, 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	expectLines(t, lines, []string{"j=10-20-30 n=3"})
}

func TestJoinArrayFloats(t *testing.T) {
	got := runSwift(t, `
		float xs[] = [1.5, 2.5];
		printf("%s", join_array(xs, " "));
	`, 3, 1, 1)
	expectLines(t, got, []string{"1.5 2.5"})
}

// byValueProgram uses loop variables every way a body can: in nested ifs
// and foreach loops, as composite and template arguments, promoted, as a
// member and as a subscript on either side, negated and printed.
const byValueProgram = `
	(int o) twice(int x) { o = x * 2; }
	(float o) half(float x) { o = x / 2.0; }
	(int o) addone(int i) "p" "1" [ "set <<o>> [expr {<<i>> + 1}]" ];
	int a[] = [10, 20, 30];
	int sq[];
	float fs[];
	foreach i in [0:2] {
		if (i % 2 == 0) {
			printf("even %i", i);
			foreach j in [0:1] {
				if (j == 1) { printf("deep %i %i sum %i", i, j, i + j); }
			}
		} else {
			printf("odd %i twice %i", i, twice(i));
		}
		sq[i] = i;
		fs[i] = i;
		int m[] = [i, i + 1, i];
		printf("a[%i]=%i m=%s half=%s plus=%i neg=%i", i, a[i], join_array(m, ","), toString(half(i)), addone(i), -i);
		trace(i, itof(i));
	}
	foreach v, k in a {
		if (k > 0) { sq[k + 10] = v + k; }
		foreach w in [k:k+1] { printf("inner %i %i", k, w); }
	}
	printf("sq: %i %i %i %i %i n=%i fs: %s", sq[0], sq[1], sq[2], sq[11], sq[12], size(sq), toString(fs[2]));
`

func TestByValueLoopVariables(t *testing.T) {
	// Loop indices and range elements reach the body as plain integers.
	// Every way a body can use one — captured by a nested if and a nested
	// foreach, passed to a composite and to a template function, promoted
	// to float, stored as a member, used as a subscript on either side,
	// negated, printed — must read as it did when each was a TD (the
	// expected lines are the parent commit's output).
	got := runSwift(t, byValueProgram, 5, 2, 1)
	expectLines(t, got, []string{
		"even 0", "even 2", "odd 1 twice 2",
		"deep 0 1 sum 1", "deep 2 1 sum 3",
		"a[0]=10 m=0,1,0 half=0.0 plus=1 neg=0",
		"a[1]=20 m=1,2,1 half=0.5 plus=2 neg=-1",
		"a[2]=30 m=2,3,2 half=1.0 plus=3 neg=-2",
		"trace: 0,0.0", "trace: 1,1.0", "trace: 2,2.0",
		"inner 0 0", "inner 0 1", "inner 1 1", "inner 1 2", "inner 2 2", "inner 2 3",
		"sq: 0 1 2 21 32 n=5 fs: 2.0",
	})
}

func TestLoopVariableCannotBeAssigned(t *testing.T) {
	_, err := Compile(`foreach i in [0:3] { i = 7; }`)
	if err == nil || !strings.Contains(err.Error(), "loop variable") {
		t.Fatalf("err = %v", err)
	}
}
