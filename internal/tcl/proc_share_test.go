package tcl

import (
	"strings"
	"testing"
)

// A proc command whose words are all literal is built once, when its
// script is compiled: every interpreter that evaluates the script
// installs the same immutable definition. These tests pin that the
// sharing is invisible — each interpreter's procs stay its own.

const sharedProcs = `
	proc f {} { return one }
	proc g {a {b 2}} { expr {$a * $b} }
`

func mustCompile(t *testing.T, src string) *Script {
	t.Helper()
	s, err := CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustEvalScript(t *testing.T, in *Interp, s *Script) {
	t.Helper()
	if _, err := in.EvalScript(s); err != nil {
		t.Fatal(err)
	}
}

func TestSharedProcOneDefinitionAcrossInterpreters(t *testing.T) {
	s := mustCompile(t, sharedProcs)
	a, b := New(), New()
	mustEvalScript(t, a, s)
	mustEvalScript(t, b, s)
	for _, name := range []string{"f", "g"} {
		if a.procs[name] == nil || a.procs[name] != b.procs[name] {
			t.Fatalf("proc %s: %p and %p, want one shared definition", name, a.procs[name], b.procs[name])
		}
	}
	if a.procs["g"].compiled == nil {
		t.Fatal("the shared definition carries no compiled body")
	}
	for _, in := range []*Interp{a, b} {
		if got := mustEval(t, in, "g 3"); got != "6" {
			t.Fatalf("g 3 = %q, want 6", got)
		}
	}
}

func TestSharedProcRedefinitionAndRenameStayLocal(t *testing.T) {
	s := mustCompile(t, sharedProcs)
	a, b := New(), New()
	mustEvalScript(t, a, s)
	mustEvalScript(t, b, s)
	mustEval(t, a, `proc f {} { return two }`)
	mustEval(t, a, `rename g h`)
	if got := mustEval(t, a, "f"); got != "two" {
		t.Fatalf("redefined f = %q, want two", got)
	}
	if got := mustEval(t, a, "h 5"); got != "10" {
		t.Fatalf("renamed h 5 = %q, want 10", got)
	}
	if _, err := a.Eval("g 1"); err == nil {
		t.Fatal("g still callable after rename")
	}
	if got := mustEval(t, b, "f"); got != "one" {
		t.Fatalf("other interpreter's f = %q, want one", got)
	}
	if got := mustEval(t, b, "g 5"); got != "10" {
		t.Fatalf("other interpreter's g 5 = %q, want 10", got)
	}
	// Evaluating the script again restores the shared definitions.
	mustEvalScript(t, a, s)
	if got := mustEval(t, a, "f"); got != "one" {
		t.Fatalf("f after re-evaluating the script = %q, want one", got)
	}
}

func TestSharedProcRenamedProcCommandTakesEffect(t *testing.T) {
	s := mustCompile(t, sharedProcs)
	in := New()
	mustEval(t, in, `rename proc define`)
	if _, err := in.EvalScript(s); err == nil || !strings.Contains(err.Error(), `invalid command name "proc"`) {
		t.Fatalf("proc after rename: err = %v, want invalid command name", err)
	}
	if in.HasCommand("f") {
		t.Fatal("f defined through a renamed-away proc command")
	}
	// A proc named proc now stands in for the command.
	mustEval(t, in, `define proc {name params body} { lappend ::defined $name }`)
	mustEvalScript(t, in, s)
	if got := mustEval(t, in, "set ::defined"); got != "f g" {
		t.Fatalf("user proc saw %q, want f g", got)
	}
	if in.HasCommand("f") {
		t.Fatal("f defined behind the user's proc")
	}
	// So does a command a host registers under the name.
	host := New()
	var seen []string
	host.RegisterCommand("proc", func(in *Interp, args []string) (string, error) {
		seen = append(seen, args[1])
		return "", nil
	})
	mustEvalScript(t, host, s)
	if strings.Join(seen, " ") != "f g" || host.HasCommand("f") {
		t.Fatalf("host proc saw %v, f defined = %v", seen, host.HasCommand("f"))
	}
}

func TestSharedProcInNamespace(t *testing.T) {
	in := New()
	mustEval(t, in, `
		namespace eval ns {
			proc helper {} { return inner }
			proc f {} { helper }
		}`)
	if in.HasCommand("f") || in.HasCommand("helper") {
		t.Fatal("a namespace proc was defined globally")
	}
	if got := mustEval(t, in, "ns::f"); got != "inner" {
		t.Fatalf("ns::f = %q, want inner (resolved in its namespace)", got)
	}
	if ns := in.procs["ns::f"].ns; ns != "ns" {
		t.Fatalf("ns::f's namespace = %q, want ns", ns)
	}
}

func TestSharedProcBodySyntaxErrorRaisedAtCall(t *testing.T) {
	const body = ` set x "unclosed `
	s := mustCompile(t, "proc bad {} {"+body+"}; set ok 1")
	in := New()
	mustEvalScript(t, in, s)
	_, want := CompileScript(body)
	if want == nil {
		t.Fatal("the body parses")
	}
	for call := 0; call < 2; call++ {
		if _, err := in.Eval("bad"); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: err = %v, want %v", call, err, want)
		}
	}
}
