package stc

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current compiler")

// TestGoldenGeneratedProcs compares the procs generated for swiftbench's
// three program shapes (ensemble_small, cold_runs, vector_scatter_gather;
// sources under testdata) with the committed text, so a change in what
// the compiler emits shows up in review as a diff of Turbine code. After
// an intended change: go test ./internal/stc -run Golden -update.
func TestGoldenGeneratedProcs(t *testing.T) {
	for _, name := range []string{"ensemble", "cold", "vector"} {
		src, err := os.ReadFile(filepath.Join("testdata", name+".swift"))
		if err != nil {
			t.Fatal(err)
		}
		out, err := Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := strings.TrimPrefix(out.Program, Prelude)
		golden := filepath.Join("testdata", name+".tcl")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: generated procs differ from %s (rerun with -update if intended)\n--- got\n%s--- want\n%s", name, golden, got, want)
		}
	}
}

func TestEnsembleLoopBodyMintsNoConstantTDs(t *testing.T) {
	// The per-iteration body of the ensemble shape: three allocates, three
	// leaf rules, one insert. The code strings and the index are
	// immediates, and out[i] at a known i is a direct insert under the
	// loop's own write reference.
	src, err := os.ReadFile(filepath.Join("testdata", "ensemble.swift"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	body := regexp.MustCompile(`(?s)proc u:loop\d+ \{[^}]*\} \{\n(.*?)\n\}\n`).FindStringSubmatch(out.Program)
	if body == nil {
		t.Fatalf("no loop body proc in\n%s", out.Program)
	}
	for _, banned := range []string{"turbine::literal_", "write_refcount", "sw:ainsert"} {
		if strings.Contains(body[1], banned) {
			t.Errorf("loop body contains %q:\n%s", banned, body[1])
		}
	}
	if n := strings.Count(body[1], "\n") + 1; n != 7 {
		t.Errorf("loop body has %d commands, want 7:\n%s", n, body[1])
	}
}
