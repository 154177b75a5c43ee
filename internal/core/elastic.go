// Out-of-process elastic runs: one hub process holds the engines, the
// ADLB servers, and the data store; worker processes join over TCP,
// pull leased leaf tasks, and may crash or join mid-run. This is the
// paper's distributed-memory setting (and the MP-NOW shape): interpreted
// front-ends driving a network of workers, where membership is dynamic
// and a vanished peer is just a departure the server infers.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/adlb"
	"repro/internal/mpi"
	"repro/internal/nativelib"
	"repro/internal/shell"
	"repro/internal/stc"
	"repro/internal/turbine"
)

// ElasticConfig describes the hub side of an out-of-process run. Every
// rank retains embedded-interpreter state across tasks (PolicyRetain),
// and the ADLB retry and watchdog settings and the transport's
// heartbeats keep their defaults.
type ElasticConfig struct {
	// Engines and Servers run as goroutines inside the hub process.
	// Both default to 1.
	Engines int
	Servers int
	// WorkerSlots is the maximum number of workers that may ever join
	// (ranks are assigned monotonically and never reused, so a crashed
	// worker's replacement consumes a fresh slot). Defaults to 4.
	WorkerSlots int
	// MinWorkers gates the start of the run: local ranks launch only
	// once this many workers are connected, so the first leaf tasks have
	// somewhere to go before the hang watchdog starts counting; the wait
	// is bounded by minWorkersWait. Defaults to 1.
	MinWorkers int
	// Addr is the TCP listen address; empty selects 127.0.0.1:0. The
	// chosen address is reported through OnListen.
	Addr string
	// OnListen, if non-nil, receives the bound listen address before any
	// worker is awaited — the caller uses it to launch worker processes.
	OnListen func(addr string)

	// Out receives hub-side program output (engine printf/trace). Worker
	// processes write leaf-task output to their own sinks.
	Out io.Writer
	// NativeLibs are SWIG-bound on hub-local ranks. Worker processes
	// cannot receive Go objects over the wire; they always bind the
	// simulated FFT library (nativelib.NewSimLibrary), matching the
	// standalone CLI.
	NativeLibs []*nativelib.Library

	// Stats / TurbineStats collect hub-side runtime counters when
	// non-nil. ADLB servers live in the hub, so queue/lease/reclaim
	// counters are complete; LeafTasks count only hub-local execution
	// (worker processes keep their own).
	Stats        *adlb.Stats
	TurbineStats *turbine.Stats
}

// minWorkersWait bounds the gang-start wait for MinWorkers to connect.
const minWorkersWait = 60 * time.Second

// elasticWelcome is the JSON blob the hub ships to each joining worker:
// everything a worker process needs to reconstruct its side of the
// deployment.
type elasticWelcome struct {
	Engines int    `json:"engines"`
	Servers int    `json:"servers"`
	Program string `json:"program"`
}

func (c *ElasticConfig) withDefaults() ElasticConfig {
	out := *c
	if out.Engines <= 0 {
		out.Engines = 1
	}
	if out.Servers <= 0 {
		out.Servers = 1
	}
	if out.WorkerSlots <= 0 {
		out.WorkerSlots = 4
	}
	if out.MinWorkers <= 0 {
		out.MinWorkers = 1
	}
	if out.MinWorkers > out.WorkerSlots {
		out.MinWorkers = out.WorkerSlots
	}
	return out
}

// ServeElastic runs compiled Turbine code as the hub of an elastic
// deployment: engines and servers local, workers joining over TCP.
// It blocks until the run terminates (or aborts) and returns the
// assembled hub-side Result.
func ServeElastic(compiled *stc.Output, cfg ElasticConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newRig(cfg.Out, shell.NewSystem(shell.ModeCluster, nil), cfg.Stats, cfg.TurbineStats)
	programScript, err := compiled.Script()
	if err != nil {
		return nil, err
	}
	welcome, err := json.Marshal(elasticWelcome{
		Engines: cfg.Engines,
		Servers: cfg.Servers,
		Program: compiled.Program,
	})
	if err != nil {
		return nil, err
	}

	size := cfg.Engines + cfg.WorkerSlots + cfg.Servers
	world, err := mpi.NewWorld(size)
	if err != nil {
		return nil, err
	}

	tcfg := &turbine.Config{
		Engines:       cfg.Engines,
		Servers:       cfg.Servers,
		Elastic:       true,
		Stats:         r.stats,
		TurbineStats:  r.tstats,
		ProgramScript: programScript,
		Main:          compiled.Main,
		Setup:         r.setup(PolicyRetain, cfg.NativeLibs, nil),
	}

	hub, err := world.ListenTCP(mpi.HubConfig{
		Addr:      cfg.Addr,
		FirstRank: cfg.Engines,
		Slots:     cfg.WorkerSlots,
		Welcome:   welcome,
		OnLost: func(rank int) {
			// A vanished worker is a Leave the server infers: its leases
			// requeue and surviving workers pick the tasks up.
			_ = adlb.NotifyCrashed(world, cfg.Servers, rank)
		},
	})
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	if cfg.OnListen != nil {
		cfg.OnListen(hub.Addr())
	}

	// Gang start: hold the local ranks back until the minimum worker pool
	// is connected. Worker RPCs that race ahead of the local launch just
	// queue in the server mailboxes.
	deadline := time.Now().Add(minWorkersWait)
	for hub.Workers() < cfg.MinWorkers {
		if world.AbortErr() != nil {
			return nil, world.AbortErr()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("core: elastic run: only %d of %d required workers joined within %v",
				hub.Workers(), cfg.MinWorkers, minWorkersWait)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Run the hub-local ranks: engines and servers. Worker-slot ranks are
	// deliberately not launched — they live in other processes (or never
	// join at all; elastic membership terminates without them).
	local := make([]int, 0, cfg.Engines+cfg.Servers)
	for rank := 0; rank < cfg.Engines; rank++ {
		local = append(local, rank)
	}
	for rank := size - cfg.Servers; rank < size; rank++ {
		local = append(local, rank)
	}
	start := time.Now()
	err = world.RunRanks(local, func(c *mpi.Comm) error { return turbine.Run(c, tcfg) })
	hub.Close()
	if err != nil {
		return nil, err
	}
	return r.result(start), nil
}

// ElasticWorker joins the hub at addr and runs this process's single
// worker rank until the run drains (NO_MORE_WORK) or aborts. Leaf-task
// output (python print and friends) goes to out. A clean drain sends the
// hub a goodbye; any failure is reported upstream so the hub aborts the
// run rather than hanging on a wedged peer.
func ElasticWorker(addr string, out io.Writer) error {
	if out == nil {
		out = io.Discard
	}
	wc, err := mpi.JoinTCP(addr)
	if err != nil {
		return err
	}
	var w elasticWelcome
	if err := json.Unmarshal(wc.Welcome(), &w); err != nil {
		err = fmt.Errorf("core: elastic worker: malformed welcome: %w", err)
		wc.CloseWithError(err)
		return err
	}
	programScript, err := (&stc.Output{Program: w.Program}).Script()
	if err != nil {
		err = fmt.Errorf("core: elastic worker: compiling the welcome's program: %w", err)
		wc.CloseWithError(err)
		return err
	}
	// The native library is the simulated FFT one (see
	// ElasticConfig.NativeLibs).
	r := newRig(out, shell.NewSystem(shell.ModeCluster, nil), nil, nil)
	tcfg := &turbine.Config{
		Engines:       w.Engines,
		Servers:       w.Servers,
		Elastic:       true,
		ProgramScript: programScript,
		Setup:         r.setup(PolicyRetain, []*nativelib.Library{nativelib.NewSimLibrary()}, nil),
	}
	c, err := wc.World().Comm(wc.Rank())
	if err != nil {
		wc.CloseWithError(err)
		return err
	}
	if err := turbine.Run(c, tcfg); err != nil {
		wc.CloseWithError(err)
		return err
	}
	// The hub may win the shutdown race and close the connection before
	// the goodbye lands; a failed goodbye after a clean drain is
	// indistinguishable from one that crossed the close in flight.
	_ = wc.Close()
	return nil
}
