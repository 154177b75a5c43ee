package stc

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// turbineWord matches a turbine:: command name in Turbine code. A name
// followed by "$" is completed at run time (turbine::store_$type), so it
// stands for every command it is a prefix of.
var turbineWord = regexp.MustCompile(`turbine::(\w+)(\$?)`)

// vocabularyPrograms are the shapes the compiler lowers, beside the three
// goldens: template and composite functions, loops over ranges and
// arrays, if, array reads and computed-subscript writes, join and size,
// the vector bridge, an app function, and float and string literals that
// must become TDs.
var vocabularyPrograms = []string{
	byValueProgram,
	bridgeProgram,
	`app (string o) lister(string path) { "echo" "listing" path }
	printf("%s", lister("/"));`,
	`float xs[] = [1.5, 2.5];
	string ss[] = ["a", "b"];
	int x = 1 + 2;
	int y = x;
	printf("%s %s %i %i", join_array(xs, " "), join_array(ss, " "), y, size(ss));`,
}

// emittedVocabulary returns the turbine:: names the prelude and the
// generated procs of every vocabulary program use: whole names, and the
// prefixes of names completed at run time.
func emittedVocabulary(t *testing.T) (names, prefixes map[string]bool) {
	t.Helper()
	sources := append([]string(nil), vocabularyPrograms...)
	for _, name := range []string{"ensemble", "cold", "vector"} {
		src, err := os.ReadFile(filepath.Join("testdata", name+".swift"))
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, string(src))
	}
	names, prefixes = map[string]bool{}, map[string]bool{}
	for _, src := range sources {
		out, err := Compile(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		for _, m := range turbineWord.FindAllStringSubmatch(out.Program, -1) {
			if m[2] == "$" {
				prefixes[m[1]] = true
			} else {
				names[m[1]] = true
			}
		}
	}
	return names, prefixes
}

// callCommand matches a <name>::call command name.
var callCommand = regexp.MustCompile(`::call$`)

// registeredVocabulary returns the turbine:: commands an engine or a
// worker rank registers, with every registered language installed as a
// run installs them. A rank registers no <name>::call: a leaf call
// reaches its engine as a typed record, not as a Tcl command.
func registeredVocabulary(t *testing.T) map[string]bool {
	t.Helper()
	var mu sync.Mutex
	got := map[string]bool{}
	setup := func(in *tcl.Interp, env *turbine.Env) error {
		env.Langs = lang.Install(in, lang.Host{Out: io.Discard}, lang.PolicyRetain, nil, lang.Registered()...)
		list, err := in.Eval("info commands")
		if err != nil {
			return err
		}
		cmds, err := tcl.ParseList(list)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, c := range cmds {
			if callCommand.MatchString(c) {
				return fmt.Errorf("rank %d registers %s", env.Rank, c)
			}
			if name, ok := strings.CutPrefix(c, "turbine::"); ok {
				got[name] = true
			}
		}
		return nil
	}
	if _, err := tryRunSwift(`printf("up");`, 3, 1, 1, setup); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestVocabularyIsTheTraffic: the turbine:: commands a rank registers are
// exactly those the prelude and the compiler emit, so a command no
// compiled program uses, or one it uses that no rank provides, fails here.
func TestVocabularyIsTheTraffic(t *testing.T) {
	names, prefixes := emittedVocabulary(t)
	registered := registeredVocabulary(t)
	covered := func(cmd string) bool {
		if names[cmd] {
			return true
		}
		for p := range prefixes {
			if strings.HasPrefix(cmd, p) {
				return true
			}
		}
		return false
	}
	var unused, missing []string
	for cmd := range registered {
		if !covered(cmd) {
			unused = append(unused, cmd)
		}
	}
	for cmd := range names {
		if !registered[cmd] {
			missing = append(missing, cmd)
		}
	}
	for p := range prefixes {
		found := false
		for cmd := range registered {
			found = found || strings.HasPrefix(cmd, p)
		}
		if !found {
			missing = append(missing, p+"*")
		}
	}
	sort.Strings(unused)
	sort.Strings(missing)
	if len(unused) > 0 || len(missing) > 0 {
		t.Fatalf("registered but never emitted: %v\nemitted but never registered: %v", unused, missing)
	}
	all := make([]string, 0, len(registered))
	for cmd := range registered {
		all = append(all, cmd)
	}
	sort.Strings(all)
	t.Logf("%d commands: %v", len(all), all)
}
