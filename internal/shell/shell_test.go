package shell

import (
	"strings"
	"testing"

	"repro/internal/pfs"
)

func newSys() *System {
	return NewSystem(ModeCluster, pfs.New(pfs.DefaultConfig()))
}

func TestEcho(t *testing.T) {
	s := newSys()
	out, err := s.Exec([]string{"echo", "hello", "world"}, "")
	if err != nil || out != "hello world\n" {
		t.Fatalf("%q %v", out, err)
	}
}

func TestSeqAndPipelineStyle(t *testing.T) {
	s := newSys()
	out, err := s.Exec([]string{"seq", "1", "5"}, "")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := s.Exec([]string{"wc", "-l"}, out)
	if err != nil || strings.TrimSpace(out2) != "5" {
		t.Fatalf("%q %v", out2, err)
	}
	out3, err := s.Exec([]string{"head", "-n", "2"}, out)
	if err != nil || out3 != "1\n2\n" {
		t.Fatalf("%q %v", out3, err)
	}
}

func TestCatGrepWithFS(t *testing.T) {
	s := newSys()
	s.FS.Provision("/data/log.txt", []byte("ok line\nerror here\nok again\n"))
	out, err := s.Exec([]string{"cat", "/data/log.txt"}, "")
	if err != nil || !strings.Contains(out, "error here") {
		t.Fatalf("%q %v", out, err)
	}
	out, err = s.Exec([]string{"grep", "error", "/data/log.txt"}, "")
	if err != nil || out != "error here\n" {
		t.Fatalf("%q %v", out, err)
	}
	out, err = s.Exec([]string{"grep", "ok"}, "ok 1\nbad\nok 2\n")
	if err != nil || out != "ok 1\nok 2\n" {
		t.Fatalf("%q %v", out, err)
	}
}

func TestSortAndBasenameAndExpr(t *testing.T) {
	s := newSys()
	out, err := s.Exec([]string{"sort"}, "b\na\nc\n")
	if err != nil || out != "a\nb\nc\n" {
		t.Fatalf("%q %v", out, err)
	}
	out, err = s.Exec([]string{"basename", "/a/b/c.txt"}, "")
	if err != nil || out != "c.txt\n" {
		t.Fatalf("%q %v", out, err)
	}
	out, err = s.Exec([]string{"expr", "6", "*", "7"}, "")
	if err != nil || out != "42\n" {
		t.Fatalf("%q %v", out, err)
	}
	if _, err := s.Exec([]string{"expr", "1", "/", "0"}, ""); err == nil {
		t.Fatal("expected division by zero")
	}
}

func TestBGQModeRefusesSpawn(t *testing.T) {
	s := NewSystem(ModeBGQ, nil)
	_, err := s.Exec([]string{"echo", "hi"}, "")
	if err == nil || !strings.Contains(err.Error(), "not supported on this system") {
		t.Fatalf("err = %v", err)
	}
	if s.Spawns() != 0 {
		t.Fatal("BGQ mode spawned a process")
	}
}

func TestSpawnAccounting(t *testing.T) {
	s := newSys()
	for i := 0; i < 5; i++ {
		if _, err := s.Exec([]string{"echo", "x"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spawns() != 5 {
		t.Fatalf("spawns = %d", s.Spawns())
	}
	// Each launch opens its binary: one metadata op per spawn.
	if s.FS.MetaOps() != 5 {
		t.Fatalf("metadata ops = %d", s.FS.MetaOps())
	}
}

func TestUnknownCommandAndCustomProgram(t *testing.T) {
	s := newSys()
	if _, err := s.Exec([]string{"nosuchprog"}, ""); err == nil || !strings.Contains(err.Error(), "command not found") {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Exec(nil, ""); err == nil {
		t.Fatal("empty command should fail")
	}
	s.RegisterProgram("mysim", func(sys *System, argv []string, stdin string) (string, error) {
		return "simulated " + strings.Join(argv[1:], ","), nil
	})
	out, err := s.Exec([]string{"mysim", "a", "b"}, "")
	if err != nil || out != "simulated a,b" {
		t.Fatalf("%q %v", out, err)
	}
}

func TestWcModes(t *testing.T) {
	s := newSys()
	input := "one two\nthree\n"
	out, _ := s.Exec([]string{"wc", "-l"}, input)
	if strings.TrimSpace(out) != "2" {
		t.Fatalf("wc -l = %q", out)
	}
	out, _ = s.Exec([]string{"wc", "-w"}, input)
	if strings.TrimSpace(out) != "3" {
		t.Fatalf("wc -w = %q", out)
	}
	out, _ = s.Exec([]string{"wc", "-c"}, input)
	if strings.TrimSpace(out) != "14" {
		t.Fatalf("wc -c = %q", out)
	}
}
