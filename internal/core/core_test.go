package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/nativelib"
	"repro/internal/pfs"
	"repro/internal/pkgs"
	"repro/internal/shell"
	"repro/internal/tcl"
)

func lines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

func TestQuickstart(t *testing.T) {
	res, err := Run(`
		(int o) f(int i) { o = i * 2; }
		foreach i in [0:9] { printf("%i", f(i)); }
	`, Config{Engines: 1, Workers: 3, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := lines(res.Stdout)
	if len(got) != 10 {
		t.Fatalf("got %d lines: %v", len(got), got)
	}
}

func TestPythonBuiltin(t *testing.T) {
	res, err := Run(`
		string r = python("y = 6 * 7", "y");
		printf("py=%s", r);
	`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "py=42") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Evals["python"] != 1 {
		t.Fatalf("python evals = %d", res.Evals["python"])
	}
}

func TestRBuiltin(t *testing.T) {
	res, err := Run(`
		string m = r("v <- c(1, 2, 3, 4)", "mean(v)");
		printf("mean=%s", m);
	`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "mean=2.5") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Evals["r"] != 1 {
		t.Fatalf("r evals = %d", res.Evals["r"])
	}
}

func TestTclBuiltin(t *testing.T) {
	res, err := Run(`
		string v = tcl("expr {2 ** 16}");
		printf("tcl=%s", v);
	`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "tcl=65536") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestShBuiltinAndApp(t *testing.T) {
	res, err := Run(`
		app (string o) lister(string path) { "echo" "listing" path }
		string direct = sh("echo", "direct-call");
		string viaapp = lister("/data");
		printf("%s | %s", direct, viaapp);
	`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "direct-call | listing /data") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Spawns != 2 {
		t.Fatalf("spawns = %d", res.Spawns)
	}
}

func TestBGQModeForbidsApps(t *testing.T) {
	_, err := Run(`
		string x = sh("echo", "hi");
		printf("%s", x);
	`, Config{ShellMode: shell.ModeBGQ})
	if err == nil || !strings.Contains(err.Error(), "not supported on this system") {
		t.Fatalf("err = %v", err)
	}
	// But Python still works on BG/Q — the paper's whole point.
	res, err := Run(`
		string x = python("v = 'embedded works'", "v");
		printf("%s", x);
	`, Config{ShellMode: shell.ModeBGQ})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "embedded works") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestNativeLibraryViaSwig(t *testing.T) {
	// Paper Fig. 3 end to end: native kernel bound by SWIG, called
	// through a Swift Tcl-template extension function.
	src := `
		(float o) lattice(int cells, int steps, float coupling)
		"libsim" "1.0"
		[ "set <<o>> [ sim_lattice <<cells>> <<steps>> <<coupling>> ]" ];
		float e = lattice(64, 10, 0.1);
		printf("energy=%f", e);
	`
	res, err := Run(src, Config{NativeLibs: []*nativelib.Library{nativelib.NewSimLibrary()}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "energy=") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	var e float64
	if _, err := fmt.Sscanf(strings.TrimSpace(res.Stdout), "energy=%f", &e); err != nil {
		t.Fatalf("parse %q: %v", res.Stdout, err)
	}
	if e <= 0 {
		t.Fatalf("energy = %v", e)
	}
}

func TestBlobThroughNative(t *testing.T) {
	// Blob built in Swift, passed into a native kernel via the
	// blobutils path (paper §III-B).
	src := `
		(string o) versioncheck()
		"libsim" "1.0"
		[ "set <<o>> [ sim_version ]" ];
		blob b = blob_from_string("eight ch");
		int n = blob_size(b);
		printf("bytes=%i version=%s", n, versioncheck());
	`
	res, err := Run(src, Config{NativeLibs: []*nativelib.Library{nativelib.NewSimLibrary()}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "bytes=8") || !strings.Contains(res.Stdout, "libsim 1.0") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestRetainVsReinitSemantics(t *testing.T) {
	// Retained interpreter: the second task sees the first task's state
	// (single worker ensures both run in the same interpreter).
	src := `
		string a = python("counter = 100", "counter");
		string b = python("counter = counter + 1", "counter");
		printf("%s %s", a, b);
	`
	res, err := Run(src, Config{Workers: 1, Policy: PolicyRetain})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "100 101") {
		t.Fatalf("retain: stdout = %q", res.Stdout)
	}
	// Reinitialised interpreter: the second fragment must fail because
	// state was cleared.
	_, err = Run(src, Config{Workers: 1, Policy: PolicyReinit})
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("reinit: err = %v", err)
	}
}

func TestInterlanguagePipeline(t *testing.T) {
	// Data flows Swift -> Python -> R -> Tcl within one program.
	src := `
		string py = python("total = sum(range(5)) * 1.0", "total");
		string rv = r("v <- c(" + py + ", 10)", "sum(v)");
		string tv = tcl("expr {int(" + rv + ") * 2}");
		printf("final=%s", tv);
	`
	res, err := Run(src, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// sum 0..4 = 10, +10 = 20, *2 = 40.
	if !strings.Contains(res.Stdout, "final=40") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestBundleAndPackageRequire(t *testing.T) {
	// User Tcl code shipped in a static package, required by a template
	// function (paper §III-A + §IV static packages).
	bundle := pkgs.NewBundle()
	bundle.AddString("lib/my_package.tcl", `
		package provide my_package 1.0
		proc f {i j} { expr {$i * 10 + $j} }
	`)
	src := `
		(int o) f(int i, int j)
		"my_package" "1.0"
		[ "set <<o>> [ f <<i>> <<j>> ]" ];
		int x = f(2, 3);
		printf("x=%i", x);
	`
	res, err := Run(src, Config{Bundle: bundle, PkgPath: []string{"lib"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "x=23") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestFSSourceFallback(t *testing.T) {
	fs := pfs.New(pfs.DefaultConfig())
	fs.Provision("lib/disk_pkg.tcl", []byte(`
		package provide disk_pkg 1.0
		proc onDisk {} { return from-disk }
	`))
	src := `
		(string o) g()
		"disk_pkg" "1.0"
		[ "set <<o>> [ onDisk ]" ];
		printf("%s", g());
	`
	res, err := Run(src, Config{FS: fs, PkgPath: []string{"lib"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "from-disk") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestTclSetupHook(t *testing.T) {
	res, err := Run(`
		(string o) custom()
		"userpkg" "1.0"
		[ "set <<o>> [ my_custom_cmd ]" ];
		printf("%s", custom());
	`, Config{TclSetup: func(in *tcl.Interp) error {
		in.RegisterCommand("my_custom_cmd", func(in *tcl.Interp, args []string) (string, error) {
			return "custom-result", nil
		})
		in.Eval("package provide userpkg 1.0")
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "custom-result") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	if _, err := Run("int x = undefined_var;", Config{}); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestResultCounters(t *testing.T) {
	res, err := Run(`
		foreach i in [0:19] {
			string s = python("q = 1", "q");
			trace(s);
		}
	`, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals["python"] != 20 {
		t.Fatalf("python evals = %d", res.Evals["python"])
	}
	if res.LeafTasks != 20 {
		t.Fatalf("leaf tasks = %d", res.LeafTasks)
	}
	if res.ADLB.GetsServed == 0 {
		t.Fatal("no gets recorded")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestScaleManyTasks(t *testing.T) {
	res, err := Run(`
		(int o) sq(int i) { o = i * i; }
		foreach i in [0:199] {
			printf("%i", sq(i));
		}
	`, Config{Engines: 2, Workers: 6, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := lines(res.Stdout); len(got) != 200 {
		t.Fatalf("got %d lines", len(got))
	}
}

func TestVoidOutputsSignal(t *testing.T) {
	// A void output of a Tcl-template function is stored like any other
	// output, and a void copy waits on its source: in both shapes the
	// statement that waits on the signal runs.
	for _, tc := range []struct{ name, src string }{
		{"template output", `void s = signal(1);
			printf("after %i", after(s, 7));`},
		{"copy", `void s = signal(1);
			void b = s;
			printf("after %i", after(b, 7));`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(`
				(void d) signal(int i) "p" "1" [ "set <<d>> 1" ];
				(int o) after(void d, int i) "p" "1" [ "set <<o>> <<i>>" ];
				`+tc.src, Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stdout != "after 7\n" {
				t.Fatalf("stdout = %q, want \"after 7\\n\"", res.Stdout)
			}
		})
	}
}
