package main

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/adlb"
	"repro/internal/core"
	"repro/internal/nativelib"
	"repro/internal/stc"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// counter indexes one of a repetition's own counters, read from what the
// public APIs return. They repeat exactly from run to run of one program.
type counter int

const (
	cLeaves counter = iota
	cControl
	cRules
	cTurbineNotifs
	cPuts
	cGetsServed
	cGetsParked
	cStealReqs
	cStealHits
	cADLBNotifs
	cDataOps
	cRequeued
	cPoisoned
	// serve front door only
	cAdmitted
	cRejected
	cTimeouts
	cLate
	cParseHits
	cParseMisses
	nCounters
)

type counts struct {
	n     [nCounters]int64
	evals map[string]int64 // fragment evaluations per language
}

func (c *counts) add(o counts) {
	for i, v := range o.n {
		c.n[i] += v
	}
	for k, v := range o.evals {
		if c.evals == nil {
			c.evals = make(map[string]int64)
		}
		c.evals[k] += v
	}
}

// adlbCounts copies the load balancer's counters into c.
func (c *counts) adlbCounts(a adlb.StatsSnapshot) {
	c.n[cPuts] = a.PutsLocal + a.PutsForwarded
	c.n[cGetsServed] = a.GetsServed
	c.n[cGetsParked] = a.GetsParked
	c.n[cStealReqs] = a.StealReqs
	c.n[cStealHits] = a.StealHits
	c.n[cADLBNotifs] = a.Notifications
	c.n[cDataOps] = a.DataOps
	c.n[cRequeued] = a.Requeued
	c.n[cPoisoned] = a.Poisoned
}

func resultCounts(res *core.Result, ts *turbine.Stats) counts {
	c := counts{evals: res.Evals}
	c.n[cLeaves] = res.LeafTasks
	c.n[cControl] = res.ControlTasks
	c.n[cRules] = ts.RulesCreated.Load()
	c.n[cTurbineNotifs] = ts.Notifications.Load()
	c.adlbCounts(res.ADLB)
	return c
}

// repOut is what one repetition of a workload reports.
type repOut struct {
	wall      time.Duration // what throughput divides by
	runs      []float64     // latency of each individually timed run or request, ms
	attempted int
	failed    int
	firstErr  string
	counts    counts
}

func (o *repOut) fail(err error) {
	o.failed++
	if o.firstErr == "" {
		o.firstErr = err.Error()
	}
}

// workload is one set of inputs the benchmark runs, with the oracle that
// checks it.
type workload struct {
	name string
	unit string // what work_per_s counts on this workload
	run  string // what one run latency sample times
	// units is the native work in one repetition (leaf tasks, container
	// members, MB, runs, fragments, slept milliseconds).
	units float64
	// workers is the number of worker ranks; sleep the seconds of leaf
	// sleep in one repetition (parallel efficiency = sleep / workers / wall).
	workers int
	sleep   float64
	// cpuIdle marks a workload whose wall time is sleep, not computation:
	// its timings are not scaled by the machine's speed.
	cpuIdle bool
	// evalCost names, per language, the ladder metric that prices one of
	// this workload's fragments, for the evaluator share of worker time.
	evalCost map[string]string
	detail   string // generated sizes, stated in the output

	setup func(tr *tracer, parent spanID) error
	rep   func(tr *tracer, parent spanID) repOut
	close func()
}

var inprocWorld = core.Config{Engines: 1, Workers: 2, Servers: 1}

// spinSetup registers bench::spin <us>, a leaf command that sleeps: the
// task holds a worker without holding a core, as bench_test.go's does.
func spinSetup(in *tcl.Interp) error {
	in.RegisterCommand("bench::spin", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 2 { // args[0] is the command name
			return "", fmt.Errorf("bench::spin: want 1 argument, got %d", len(args)-1)
		}
		us, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bench::spin: %w", err)
		}
		time.Sleep(time.Duration(us) * time.Microsecond)
		return "", nil
	})
	return nil
}

// progWorkload runs one compiled Swift program runsPerRep times per
// repetition through a front door and checks each run against the
// program's oracle.
type progWorkload struct {
	gen        func() program
	cfg        core.Config
	runsPerRep int
	elastic    bool
	// check overrides the printed-total oracle (cold_runs prints nothing).
	check func(res *core.Result) error

	prog     program
	compiled *stc.Output
}

func (p *progWorkload) setup(tr *tracer, parent spanID) error {
	p.prog = p.gen()
	sp := tr.begin(parent, "stc.Compile")
	compiled, err := stc.Compile(p.prog.src)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	p.compiled = compiled
	if out := p.rep(tr, parent); out.failed > 0 {
		return fmt.Errorf("warm-up repetition: %s", out.firstErr)
	}
	return nil
}

func (p *progWorkload) rep(tr *tracer, parent spanID) repOut {
	var out repOut
	out.runs = make([]float64, 0, p.runsPerRep)
	for k := 0; k < p.runsPerRep; k++ {
		out.attempted++
		ts := &turbine.Stats{}
		var res *core.Result
		var err error
		t0 := time.Now()
		if p.elastic {
			res, err = runElastic(p.compiled, ts, tr, parent)
		} else {
			cfg := p.cfg
			cfg.Stats = &adlb.Stats{}
			cfg.TurbineStats = ts
			sp := tr.begin(parent, "core.RunCompiled")
			res, err = core.RunCompiled(p.compiled, cfg)
			tr.end(sp)
		}
		lat := time.Since(t0)
		if err != nil {
			out.fail(err)
			continue
		}
		if p.elastic {
			// Result.Elapsed starts after the gang-start join, so the
			// figure is the run, not the TCP dial.
			lat = res.Elapsed
		}
		out.wall += lat
		out.runs = append(out.runs, float64(lat)/float64(time.Millisecond))
		rc := resultCounts(res, ts)
		rc.n[cLeaves] = p.leavesOf(res)
		out.counts.add(rc)
		if err := p.verify(res); err != nil {
			out.fail(err)
		}
	}
	return out
}

func (p *progWorkload) verify(res *core.Result) error {
	if p.check != nil {
		return p.check(res)
	}
	got, err := parseTotal(res.Stdout)
	if err != nil {
		return err
	}
	if !closeTo(got, p.prog.want) {
		return fmt.Errorf("printed total %.17g, oracle %.17g", got, p.prog.want)
	}
	if leaves := p.leavesOf(res); leaves != p.prog.leaves {
		return fmt.Errorf("ran %d leaf tasks, program holds %d", leaves, p.prog.leaves)
	}
	return nil
}

// leavesOf counts the leaf tasks of a run. Hub-side LeafTasks (and Evals)
// count only hub-local execution, so on the elastic door the leases the
// hub issued are the complete count.
func (p *progWorkload) leavesOf(res *core.Result) int64 {
	if p.elastic {
		return res.ADLB.LeasesIssued - res.ADLB.Requeued
	}
	return res.LeafTasks
}

// elasticWorkers is how many TCP worker connections elastic_tcp opens:
// never more load generators than cores.
const elasticWorkers = 2

// runElastic drives one program through core.ServeElastic with workers
// joined over TCP loopback from goroutines of this process.
func runElastic(compiled *stc.Output, ts *turbine.Stats, tr *tracer, parent spanID) (*core.Result, error) {
	var wg sync.WaitGroup
	werrs := make([]error, elasticWorkers)
	sp := tr.begin(parent, "core.ServeElastic")
	res, err := core.ServeElastic(compiled, core.ElasticConfig{
		Engines: 1, Servers: 1,
		WorkerSlots: elasticWorkers, MinWorkers: elasticWorkers,
		Stats: &adlb.Stats{}, TurbineStats: ts,
		OnListen: func(addr string) {
			for i := range werrs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					wsp := tr.beginLane(sp, "core.ElasticWorker", i+1)
					werrs[i] = core.ElasticWorker(addr, io.Discard)
					tr.end(wsp)
				}(i)
			}
		},
	})
	tr.end(sp)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, werr := range werrs {
		if werr != nil {
			return nil, fmt.Errorf("elastic worker %d: %w", i, werr)
		}
	}
	return res, nil
}

func (p *progWorkload) workload(name, unit, run, detail string, evalCost map[string]string) *workload {
	w := &workload{
		name: name, unit: unit, run: run, detail: detail, evalCost: evalCost,
		workers: p.cfg.Workers,
		close:   func() {},
	}
	if p.elastic {
		w.workers = elasticWorkers
	}
	w.setup = func(tr *tracer, parent spanID) error {
		if err := p.setup(tr, parent); err != nil {
			return err
		}
		w.units = p.prog.units * float64(p.runsPerRep)
		w.sleep = p.prog.sleep * float64(p.runsPerRep)
		return nil
	}
	w.rep = p.rep
	return w
}

var (
	lightCost = map[string]string{"python": "lang.eval_us.python", "r": "lang.eval_us.r", "julia": "lang.eval_us.julia"}
	heavyCost = map[string]string{"python": "lang.eval_heavy_us.python", "r": "lang.eval_heavy_us.r", "julia": "lang.eval_heavy_us.julia"}
)

// coldCheck is the oracle of the historical program, which prints nothing.
func coldCheck(res *core.Result) error {
	if res.LeafTasks != 24 || res.Evals["python"] != 8 || res.Evals["r"] != 8 {
		return fmt.Errorf("cold run: %d leaf tasks, %d python and %d r evals; want 24, 8, 8",
			res.LeafTasks, res.Evals["python"], res.Evals["r"])
	}
	return nil
}

// coldConfig is cold_runs' world: the historical configuration, kept so
// the line back to BenchmarkEndToEndInterlanguage holds.
var coldConfig = core.Config{Engines: 1, Workers: 4, Servers: 1, NativeLibs: []*nativelib.Library{nativelib.NewSimLibrary()}}

// buildWorkloads generates every workload from the seed, in the fixed
// order the rounds run them.
func buildWorkloads(seed int64, sz sizes) []*workload {
	const oneRun = "one program run"
	small := func() program { return genEnsembleSmall(seed, sz.Pipelines) }
	sleep := (&progWorkload{
		gen:        func() program { return genSleep(seed, sz.SleepTasks) },
		cfg:        core.Config{Engines: 1, Workers: 8, Servers: 2, TclSetup: spinSetup},
		runsPerRep: sz.SleepRuns,
	}).workload("balance_sleep", "slept ms", oneRun,
		fmt.Sprintf("%d runs of %d tasks per repetition", sz.SleepRuns, sz.SleepTasks), nil)
	sleep.cpuIdle = true
	return []*workload{
		(&progWorkload{gen: small, cfg: inprocWorld, runsPerRep: 1}).
			workload("ensemble_small", "leaf tasks", oneRun,
				fmt.Sprintf("%d pipelines", sz.Pipelines), lightCost),
		(&progWorkload{gen: func() program { return genEnsembleCompute(seed, sz) }, cfg: inprocWorld, runsPerRep: 1}).
			workload("ensemble_compute", "leaf tasks", oneRun,
				fmt.Sprintf("%d tasks; python loop %d, r/julia vectors %d", sz.ComputeTasks/3*3, sz.PyLoop, sz.VecLen), heavyCost),
		(&progWorkload{gen: func() program { return genVector(seed, sz.VecN, sz.VecTrips) }, cfg: inprocWorld, runsPerRep: 1}).
			workload("vector_scatter_gather", "container members", oneRun,
				fmt.Sprintf("%d trips of n=%d", sz.VecTrips, sz.VecN), nil),
		(&progWorkload{gen: func() program { return genBlob(seed, sz.BlobElems, sz.BlobPipes) }, cfg: inprocWorld, runsPerRep: 1}).
			workload("blob_pipeline", "MB delivered to engines", oneRun,
				fmt.Sprintf("%d pipelines of %d float64 (%.2f MiB) x %d deliveries", sz.BlobPipes, sz.BlobElems, float64(sz.BlobElems)*8/(1<<20), blobDeliveries), nil),
		(&progWorkload{
			gen: func() program { return program{src: coldSource, units: 1} },
			cfg: coldConfig, runsPerRep: sz.ColdRuns, check: coldCheck,
		}).workload("cold_runs", "runs", "one cold RunCompiled",
			fmt.Sprintf("%d runs per repetition", sz.ColdRuns), nil),
		(&progWorkload{gen: small, runsPerRep: 1, elastic: true}).
			workload("elastic_tcp", "leaf tasks", "one program run (Result.Elapsed)",
				fmt.Sprintf("%d pipelines, %d TCP workers", sz.Pipelines, elasticWorkers), lightCost),
		newServeWorkload(seed, sz),
		sleep,
	}
}
