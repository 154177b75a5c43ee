// Package shell provides the app-function substrate: Swift's shell
// interface retained from Swift/K (paper §I, §IV). On clusters, app
// leaf tasks fork/exec external programs; on restricted systems such as
// the Blue Gene/Q "launching external programs is not possible at all"
// (§III-C), which is exactly why the paper embeds interpreters instead.
//
// The System here is a hermetic process table: programs are Go functions
// registered by name, each launch is counted (a caller prices it at
// SpawnCost) and opens its binary on the parallel filesystem, and
// ModeBGQ refuses to spawn at all, reproducing the constraint that
// motivates §III-C.
package shell

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pfs"
)

// Mode selects the launch policy of the simulated machine.
type Mode int

// Launch policies.
const (
	// ModeCluster allows process launches with a spawn cost.
	ModeCluster Mode = iota
	// ModeBGQ forbids process launches (Blue Gene/Q compute nodes).
	ModeBGQ
)

// SpawnCost is the virtual cost of one process launch (fork/exec plus
// dynamic loading); a caller prices a run's launches as Spawns × SpawnCost.
const SpawnCost = 2 * time.Millisecond

// Program is one executable: argv (argv[0] is the program name) and
// stdin to stdout.
type Program func(sys *System, argv []string, stdin string) (string, error)

// System is a simulated operating system for one run: a process table,
// launch policy, and a launch count.
type System struct {
	Mode Mode
	// FS, if set, charges a metadata op per launch (the binary and its
	// libraries are opened from the shared filesystem).
	FS *pfs.FS

	programs map[string]Program
	spawns   atomic.Int64
}

// NewSystem creates a System with the standard utility programs
// installed (echo, cat, wc, seq, grep, sort, head, basename, expr).
func NewSystem(mode Mode, fs *pfs.FS) *System {
	s := &System{Mode: mode, FS: fs, programs: map[string]Program{}}
	s.installCoreutils()
	return s
}

// RegisterProgram installs an executable into the process table.
func (s *System) RegisterProgram(name string, p Program) { s.programs[name] = p }

// Spawns returns how many processes have been launched.
func (s *System) Spawns() int64 { return s.spawns.Load() }

// Exec launches argv[0] with the given arguments and returns its stdout.
func (s *System) Exec(argv []string, stdin string) (string, error) {
	if len(argv) == 0 {
		return "", fmt.Errorf("shell: empty command")
	}
	if s.Mode == ModeBGQ {
		return "", fmt.Errorf("shell: cannot launch %q: spawning external processes is not supported on this system (BG/Q compute node)", argv[0])
	}
	prog, ok := s.programs[argv[0]]
	if !ok {
		return "", fmt.Errorf("shell: %s: command not found", argv[0])
	}
	s.spawns.Add(1)
	if s.FS != nil {
		// Loading the executable and its shared libraries from the
		// parallel filesystem: the at-scale killer the paper describes.
		if _, err := s.FS.ReadFile("/bin/" + argv[0]); err != nil {
			// Binary not staged: charge the lookup anyway (the stat
			// happened) but proceed; the process table is authoritative.
			_ = err
		}
	}
	return prog(s, argv, stdin)
}

func (s *System) installCoreutils() {
	s.RegisterProgram("echo", func(sys *System, argv []string, stdin string) (string, error) {
		return strings.Join(argv[1:], " ") + "\n", nil
	})
	s.RegisterProgram("cat", func(sys *System, argv []string, stdin string) (string, error) {
		if len(argv) == 1 {
			return stdin, nil
		}
		var b strings.Builder
		for _, path := range argv[1:] {
			if sys.FS == nil {
				return "", fmt.Errorf("cat: no filesystem mounted")
			}
			content, err := sys.FS.ReadFile(path)
			if err != nil {
				return "", fmt.Errorf("cat: %s: no such file", path)
			}
			b.Write(content)
		}
		return b.String(), nil
	})
	s.RegisterProgram("wc", func(sys *System, argv []string, stdin string) (string, error) {
		input := stdin
		if len(argv) > 1 && argv[1] != "-l" && argv[1] != "-w" && argv[1] != "-c" {
			if sys.FS == nil {
				return "", fmt.Errorf("wc: no filesystem mounted")
			}
			content, err := sys.FS.ReadFile(argv[len(argv)-1])
			if err != nil {
				return "", err
			}
			input = string(content)
		}
		lines := strings.Count(input, "\n")
		words := len(strings.Fields(input))
		mode := ""
		if len(argv) > 1 && strings.HasPrefix(argv[1], "-") {
			mode = argv[1]
		}
		switch mode {
		case "-l":
			return fmt.Sprintf("%d\n", lines), nil
		case "-w":
			return fmt.Sprintf("%d\n", words), nil
		case "-c":
			return fmt.Sprintf("%d\n", len(input)), nil
		}
		return fmt.Sprintf("%d %d %d\n", lines, words, len(input)), nil
	})
	s.RegisterProgram("seq", func(sys *System, argv []string, stdin string) (string, error) {
		lo, hi := int64(1), int64(0)
		switch len(argv) {
		case 2:
			n, err := strconv.ParseInt(argv[1], 10, 64)
			if err != nil {
				return "", fmt.Errorf("seq: bad argument %q", argv[1])
			}
			hi = n
		case 3:
			a, err1 := strconv.ParseInt(argv[1], 10, 64)
			b, err2 := strconv.ParseInt(argv[2], 10, 64)
			if err1 != nil || err2 != nil {
				return "", fmt.Errorf("seq: bad arguments")
			}
			lo, hi = a, b
		default:
			return "", fmt.Errorf("seq: usage: seq [first] last")
		}
		var b strings.Builder
		for i := lo; i <= hi; i++ {
			fmt.Fprintf(&b, "%d\n", i)
		}
		return b.String(), nil
	})
	s.RegisterProgram("grep", func(sys *System, argv []string, stdin string) (string, error) {
		if len(argv) < 2 {
			return "", fmt.Errorf("grep: usage: grep pattern [file]")
		}
		pattern := argv[1]
		input := stdin
		if len(argv) >= 3 {
			if sys.FS == nil {
				return "", fmt.Errorf("grep: no filesystem mounted")
			}
			content, err := sys.FS.ReadFile(argv[2])
			if err != nil {
				return "", err
			}
			input = string(content)
		}
		var b strings.Builder
		for _, line := range strings.Split(input, "\n") {
			if strings.Contains(line, pattern) {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
		return b.String(), nil
	})
	s.RegisterProgram("sort", func(sys *System, argv []string, stdin string) (string, error) {
		lines := strings.Split(strings.TrimSuffix(stdin, "\n"), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n") + "\n", nil
	})
	s.RegisterProgram("head", func(sys *System, argv []string, stdin string) (string, error) {
		n := 10
		if len(argv) == 3 && argv[1] == "-n" {
			v, err := strconv.Atoi(argv[2])
			if err != nil {
				return "", fmt.Errorf("head: bad count %q", argv[2])
			}
			n = v
		}
		lines := strings.SplitAfter(stdin, "\n")
		if len(lines) > n {
			lines = lines[:n]
		}
		return strings.Join(lines, ""), nil
	})
	s.RegisterProgram("basename", func(sys *System, argv []string, stdin string) (string, error) {
		if len(argv) != 2 {
			return "", fmt.Errorf("basename: usage: basename path")
		}
		parts := strings.Split(argv[1], "/")
		return parts[len(parts)-1] + "\n", nil
	})
	s.RegisterProgram("expr", func(sys *System, argv []string, stdin string) (string, error) {
		if len(argv) != 4 {
			return "", fmt.Errorf("expr: usage: expr a op b")
		}
		a, err1 := strconv.ParseInt(argv[1], 10, 64)
		b, err2 := strconv.ParseInt(argv[3], 10, 64)
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("expr: non-integer operands")
		}
		switch argv[2] {
		case "+":
			return fmt.Sprintf("%d\n", a+b), nil
		case "-":
			return fmt.Sprintf("%d\n", a-b), nil
		case "*":
			return fmt.Sprintf("%d\n", a*b), nil
		case "/":
			if b == 0 {
				return "", fmt.Errorf("expr: division by zero")
			}
			return fmt.Sprintf("%d\n", a/b), nil
		}
		return "", fmt.Errorf("expr: unknown operator %q", argv[2])
	})
}
