// Package core is the public entry point of the reproduction: it wires
// the Swift compiler (internal/stc), the Turbine/ADLB runtime
// (internal/turbine, internal/adlb) over the simulated MPI substrate
// (internal/mpi), and the interlanguage extensions that are the paper's
// contribution — embedded Python and R interpreters, SWIG-bound native
// libraries, Tcl packages, and the shell interface.
//
// A typical use:
//
//	res, err := core.Run(`
//	    (int o) f(int i) { o = i * 2; }
//	    foreach i in [0:9] { printf("%i", f(i)); }
//	`, core.Config{Engines: 1, Workers: 4, Servers: 1})
//
// The program runs as a simulated MPI job: engines evaluate dataflow,
// workers execute leaf tasks (including python(...), r(...), sh(...),
// and SWIG-wrapped native calls), ADLB servers load-balance and hold the
// distributed data store, and the run terminates when global quiescence
// is detected.
package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/adlb"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/nativelib"
	"repro/internal/pfs"
	"repro/internal/pkgs"
	"repro/internal/shell"
	"repro/internal/stc"
	"repro/internal/swig"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// InterpPolicy selects what happens to embedded interpreter state between
// leaf tasks (paper §III-C): retain it — fast, but tasks can observe
// previous tasks' globals — or reinitialise for a clean slate. It is the
// lang-layer policy re-exported for the public Config.
type InterpPolicy = lang.Policy

// Interpreter state policies.
const (
	// PolicyRetain keeps interpreter state across tasks (the default;
	// "old interpreter state can also be used to store useful data if
	// the programmer is careful").
	PolicyRetain = lang.PolicyRetain
	// PolicyReinit finalises and reinitialises the interpreter after
	// every task, clearing any state.
	PolicyReinit = lang.PolicyReinit
)

// Config describes one run.
type Config struct {
	// Engines, Workers, Servers partition the simulated MPI world
	// (paper Fig. 2). All default to 1 if zero.
	Engines int
	Workers int
	Servers int

	// Out receives program output (printf/trace/puts/print from any
	// language on any rank). Defaults to io.Discard; use Result.Stdout
	// for the captured text.
	Out io.Writer

	// Policy is the embedded-interpreter state policy (§III-C).
	Policy InterpPolicy

	// ShellMode selects the simulated machine's launch policy for app
	// functions and sh(...) (§III-C: BG/Q forbids process launches).
	ShellMode shell.Mode
	// Programs adds executables to the simulated process table beyond
	// the standard utilities (e.g. a one-shot external interpreter).
	Programs map[string]shell.Program

	// FS is an optional shared parallel filesystem for app functions,
	// source, and package loading.
	FS *pfs.FS
	// Bundle is an optional static package (paper §IV) consulted before
	// FS for source and package require.
	Bundle *pkgs.Bundle
	// PkgPath is the TCLLIBPATH-style search path for package require.
	PkgPath []string

	// NativeLibs are SWIG-bound on every rank (paper §III-B, Fig. 3).
	NativeLibs []*nativelib.Library

	// TclSetup, if non-nil, runs on every rank's interpreter before the
	// program loads (user Tcl packages, extra commands).
	TclSetup func(in *tcl.Interp) error

	// Stats / TurbineStats collect runtime counters when non-nil.
	Stats        *adlb.Stats
	TurbineStats *turbine.Stats
	// DisableSteal turns off inter-server work stealing (ablation).
	DisableSteal bool

	// WatchdogIdle tunes the ADLB hang watchdog (0 = the 5s default,
	// negative = disabled): a run whose remaining work can never be
	// executed ends with a diagnostic error instead of deadlocking.
	WatchdogIdle time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Engines <= 0 {
		out.Engines = 1
	}
	if out.Workers <= 0 {
		out.Workers = 1
	}
	if out.Servers <= 0 {
		out.Servers = 1
	}
	return out
}

// Result reports what a run did.
type Result struct {
	// Stdout is everything the program printed, in arrival order.
	Stdout string
	// Elapsed is the wall-clock duration of the simulated job.
	Elapsed time.Duration
	// ADLB is a snapshot of load-balancer counters (if Stats was set or
	// defaulted).
	ADLB adlb.StatsSnapshot
	// LeafTasks and ControlTasks count executed tasks.
	LeafTasks    int64
	ControlTasks int64
	// Evals counts embedded-engine fragment evaluations per language,
	// aggregated from the lang registry's installed engines across all
	// ranks (keys are registration names: "python", "r", "tcl", "sh",
	// plus any language registered by the host program).
	Evals map[string]int64
	// Spawns counts simulated process launches by app functions.
	Spawns int64
	// TaskRetries counts leaf tasks requeued after a retriable failure
	// or a worker death (== ADLB.Requeued).
	TaskRetries int64
	// TaskFailures counts leaf tasks that failed under containment,
	// whether later retried to success or poisoned.
	TaskFailures int64
}

// lockedWriter serialises concurrent rank output and captures it.
type lockedWriter struct {
	mu  sync.Mutex
	buf strings.Builder
	tee io.Writer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.WriteString(string(p))
	if w.tee != nil {
		w.tee.Write(p)
	}
	return len(p), nil
}

// Run compiles and executes Swift source under cfg.
func Run(source string, cfg Config) (*Result, error) {
	compiled, err := stc.Compile(source)
	if err != nil {
		return nil, err
	}
	return RunCompiled(compiled, cfg)
}

// rig is what every way of standing up ranks shares (RunCompiled,
// ServeElastic, ElasticWorker): the output sink, the simulated machine,
// the run-wide counters, and the two things built from them — the
// per-rank interpreter setup and the Result.
type rig struct {
	sink *lockedWriter
	sys  *shell.System
	// counters has one eval-counter slot per registered language, shared
	// by all ranks; evaluations through the engines setup installs count
	// into it.
	counters *lang.Counters
	langs    []lang.Registration
	stats    *adlb.Stats
	tstats   *turbine.Stats
}

// newRig captures program output into a sink teeing to out. Nil stats
// blocks are allocated, so a Result can always be assembled.
func newRig(out io.Writer, sys *shell.System, stats *adlb.Stats, tstats *turbine.Stats) *rig {
	if stats == nil {
		stats = &adlb.Stats{}
	}
	if tstats == nil {
		tstats = &turbine.Stats{}
	}
	return &rig{
		sink:     &lockedWriter{tee: out},
		sys:      sys,
		counters: lang.NewCounters(),
		langs:    lang.Registered(),
		stats:    stats,
		tstats:   tstats,
	}
}

// setup builds the turbine.Config.Setup hook run on every rank's
// interpreter. It installs every registered embedded language as the
// rank's engine table (env.Langs), which runs the leaf records a worker
// receives, and as <name>::eval commands: each engine is created lazily
// on its first fragment, the state policy applies uniformly, and
// evaluations are counted per language. Then the native libraries are
// SWIG-bound and provided as packages, and last, extra (if non-nil)
// applies the caller's own interpreter configuration.
func (r *rig) setup(policy InterpPolicy, libs []*nativelib.Library, extra func(in *tcl.Interp) error) func(*tcl.Interp, *turbine.Env) error {
	return func(in *tcl.Interp, env *turbine.Env) error {
		in.Out = r.sink
		env.Langs = lang.Install(in, lang.Host{Out: r.sink, Shell: r.sys}, policy, r.counters, r.langs...)
		for _, lib := range libs {
			if _, err := swig.Bind(in, lib); err != nil {
				return err
			}
			if _, err := in.Eval("package provide " + lib.Name); err != nil {
				return fmt.Errorf("core: providing native library %q: %w", lib.Name, err)
			}
		}
		if extra != nil {
			return extra(in)
		}
		return nil
	}
}

// result assembles the Result of a run started at start.
func (r *rig) result(start time.Time) *Result {
	return &Result{
		Stdout:       r.sink.buf.String(),
		Elapsed:      time.Since(start),
		ADLB:         r.stats.Snapshot(),
		LeafTasks:    r.tstats.LeafTasks.Load(),
		ControlTasks: r.tstats.ControlTasks.Load(),
		Evals:        r.counters.Snapshot(),
		Spawns:       r.sys.Spawns(),
		TaskRetries:  r.stats.Requeued.Load(),
		TaskFailures: r.tstats.TaskFailures.Load(),
	}
}

// RunCompiled executes already-compiled Turbine code under cfg.
func RunCompiled(compiled *stc.Output, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sys := shell.NewSystem(cfg.ShellMode, cfg.FS)
	for name, prog := range cfg.Programs {
		sys.RegisterProgram(name, prog)
	}
	r := newRig(cfg.Out, sys, cfg.Stats, cfg.TurbineStats)

	// Compile the Turbine program once; every rank (and every repeated
	// run of the same Output) shares the parsed form.
	programScript, err := compiled.Script()
	if err != nil {
		return nil, err
	}

	tcfg := &turbine.Config{
		Engines:       cfg.Engines,
		Servers:       cfg.Servers,
		Stats:         r.stats,
		TurbineStats:  r.tstats,
		DisableSteal:  cfg.DisableSteal,
		WatchdogIdle:  cfg.WatchdogIdle,
		ProgramScript: programScript,
		Main:          compiled.Main,
		Setup: r.setup(cfg.Policy, cfg.NativeLibs, func(in *tcl.Interp) error {
			in.PkgPath = cfg.PkgPath
			in.SourceFS = func(path string) (string, error) {
				if cfg.Bundle != nil {
					if content, err := cfg.Bundle.SourceFS(path); err == nil {
						return content, nil
					}
				}
				if cfg.FS != nil {
					return cfg.FS.SourceFS(path)
				}
				return "", fmt.Errorf("core: no filesystem mounted for %q", path)
			}
			if cfg.TclSetup != nil {
				return cfg.TclSetup(in)
			}
			return nil
		}),
	}

	size := cfg.Engines + cfg.Workers + cfg.Servers
	world, err := mpi.NewWorld(size)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = world.Run(func(c *mpi.Comm) error { return turbine.Run(c, tcfg) })
	if err != nil {
		return nil, err
	}
	return r.result(start), nil
}
