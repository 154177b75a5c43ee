// Package turbine implements the Turbine dataflow engine of Swift/T
// (paper §II-B): the runtime layer that evaluates compiled Swift programs
// as distributed-memory dataflow. MPI ranks are partitioned into engines
// (which make the rules and run control actions once their inputs
// close), ADLB servers (work queues and the data store, which hold every
// rule until its inputs close), and workers (which execute leaf tasks,
// their inputs' values delivered with them). Turbine code is Tcl; every rank hosts a Tcl
// interpreter with the turbine::* command set registered, and leaf tasks
// may additionally call into embedded Python/R interpreters, SWIG-wrapped
// native kernels, or the shell, as the higher layers arrange.
package turbine

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/adlb"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/tcl"
)

// Work types used on the ADLB queues.
const (
	// TypeControl carries control actions as Tcl text: a control rule,
	// delivered to the engine that made it once its inputs close, and a
	// fragment turbine::spawn releases to any engine. Engines Get this
	// type.
	TypeControl = 0
	// TypeWork carries leaf tasks; workers Get this type.
	TypeWork = 1
)

// Config describes a Turbine deployment inside an MPI world: the first
// Engines client ranks are engines, the remaining clients are workers,
// and the last Servers ranks are ADLB servers (paper Fig. 2).
type Config struct {
	Engines int
	Servers int
	// Stats, if non-nil, collects ADLB counters.
	Stats *adlb.Stats
	// TurbineStats, if non-nil, collects engine/worker counters.
	TurbineStats *Stats
	// DisableSteal forwards to adlb.Config.DisableSteal.
	DisableSteal bool
	// WatchdogIdle forwards to adlb.Config.WatchdogIdle (the hang
	// watchdog; 0 = the 5s default, negative = disabled).
	WatchdogIdle time.Duration
	// Elastic forwards to adlb.Config.Elastic: client membership is the
	// dynamically registered roster rather than the static layout. Set by
	// the out-of-process runtime, where worker ranks are TCP joins that
	// may arrive mid-run or never.
	Elastic bool
	// Setup, if non-nil, runs on every rank's interpreter before
	// execution begins; used to install the embedded-language engines
	// from the lang registry (Env.Langs and the <name>::eval commands),
	// SWIG-generated wrappers, and user packages.
	Setup func(in *tcl.Interp, env *Env) error
	// ProgramScript, if non-nil, is the Turbine code (Tcl) loaded into
	// every rank's interpreter before the run, typically STC compiler
	// output defining procs, in its compiled form (see stc.Output.Script).
	// Every rank evaluates the same parse.
	ProgramScript *tcl.Script
	// Main is the Tcl fragment evaluated on engine rank 0 to seed the
	// run (typically a proc defined by ProgramScript).
	Main string
}

// Validate checks the deployment shape for a world of the given size.
func (c *Config) Validate(worldSize int) error {
	if c.Engines < 1 {
		return fmt.Errorf("turbine: need at least 1 engine, got %d", c.Engines)
	}
	if c.Servers < 1 {
		return fmt.Errorf("turbine: need at least 1 server, got %d", c.Servers)
	}
	workers := worldSize - c.Engines - c.Servers
	if workers < 1 {
		return fmt.Errorf("turbine: world of %d with %d engines and %d servers leaves %d workers",
			worldSize, c.Engines, c.Servers, workers)
	}
	return nil
}

func (c *Config) adlbConfig() adlb.Config {
	return adlb.Config{
		Servers:       c.Servers,
		Types:         2,
		Stats:         c.Stats,
		DisableSteal:  c.DisableSteal,
		WatchdogIdle:  c.WatchdogIdle,
		Elastic:       c.Elastic,
		StaticClients: c.Engines,
	}
}

// Stats aggregates Turbine-level counters across ranks.
type Stats struct {
	RulesCreated atomic.Int64
	ControlTasks atomic.Int64
	LeafTasks    atomic.Int64
	// Deprecated: Notifications reads zero. No rule waits through close
	// notifications any more; every rule is a held Put.
	Notifications atomic.Int64
	// TaskFailures counts leaf tasks that failed under containment
	// (whether later retried successfully or poisoned).
	TaskFailures atomic.Int64
}

// Role identifies what a rank does in the deployment.
type Role int

// Rank roles.
const (
	RoleEngine Role = iota
	RoleWorker
	RoleServer
)

// RoleOf maps a world rank to its role under cfg.
func (c *Config) RoleOf(rank, worldSize int) Role {
	clients := worldSize - c.Servers
	switch {
	case rank >= clients:
		return RoleServer
	case rank < c.Engines:
		return RoleEngine
	default:
		return RoleWorker
	}
}

// Env is the per-rank Turbine environment: the ADLB client plus role
// bookkeeping, shared with registered Tcl commands via ClientData.
type Env struct {
	Client *adlb.Client
	Cfg    *Config
	Rank   int
	// Langs is the rank's embedded-language engines, which run the leaf
	// records a worker receives; Setup installs it (lang.Install).
	Langs  *lang.Table
	engine *engine // non-nil on engine ranks
	interp *tcl.Interp
	rec    record     // a worker's last work item, its storage reused by the next
	plane  *dataPlane // the rank's typed data plane
}

// Interp returns the rank's Tcl interpreter.
func (e *Env) Interp() *tcl.Interp { return e.interp }

// Run executes the deployment on the calling rank, dispatching by role.
// It returns when global termination has been detected.
func Run(c *mpi.Comm, cfg *Config) error {
	if err := cfg.Validate(c.Size()); err != nil {
		return err
	}
	role := cfg.RoleOf(c.Rank(), c.Size())
	if role == RoleServer {
		return adlb.Serve(c, cfg.adlbConfig())
	}
	client, err := adlb.NewClient(c, cfg.adlbConfig())
	if err != nil {
		return err
	}
	env := &Env{Client: client, Cfg: cfg, Rank: c.Rank(), plane: &dataPlane{cl: client}}
	in := tcl.New()
	env.interp = in
	registerDataCmds(in, env)
	if role == RoleEngine {
		eng := newEngine(env)
		env.engine = eng
		registerEngineCmds(in, env)
	}
	if cfg.Setup != nil {
		if err := cfg.Setup(in, env); err != nil {
			return fmt.Errorf("turbine: setup on rank %d: %w", c.Rank(), err)
		}
	}
	if cfg.ProgramScript != nil {
		if _, err := in.EvalScript(cfg.ProgramScript); err != nil {
			return fmt.Errorf("turbine: loading program on rank %d: %w", c.Rank(), err)
		}
	}
	if role == RoleEngine {
		if c.Rank() == 0 && cfg.Main != "" {
			_, err := in.Eval(cfg.Main)
			if err == nil {
				err = client.Flush()
			}
			if err != nil {
				return fmt.Errorf("turbine: seeding main: %w", err)
			}
		}
		return env.engine.run()
	}
	return runWorker(env)
}

// ---- value formatting between the data store and Tcl strings ----

func fmtInt(v int64) string { return strconv.FormatInt(v, 10) }

func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("turbine: expected integer, got %q", s)
	}
	return v, nil
}
