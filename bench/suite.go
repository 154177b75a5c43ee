package main

import (
	"fmt"
	"runtime"
	"time"
)

// calibRefMs is the calibration loop's time on the reference box (2-vCPU
// Xeon 2.10 GHz). Every timing of a run is scaled by calibRefMs over the
// median of the calibration samples taken between its repetitions, so a
// figure reads as if the machine had run at the reference speed: on a
// shared host a core's speed drifts by tens of percent over minutes, more
// than any bound.
const calibRefMs = 20.0

// repRecord is one measured repetition, as measured.
type repRecord struct {
	wallS   float64 // throughput wall, seconds
	cpuS    float64
	allocMB float64
	counts  counts
}

// passState accumulates one pass (untraced or traced) of one workload.
type passState struct {
	reps      []repRecord
	runs      []float64 // pooled run latencies, ms, as measured
	attempted int
	failed    int
	firstErr  string
}

// wlState is one workload through a whole benchmark run.
type wlState struct {
	w        *workload
	setupS   []float64 // set-up times, seconds, as measured
	untraced passState
	traced   passState
}

// bench is one benchmark run: the workloads, the calibration samples
// taken beside every measurement, and the passes made.
type bench struct {
	seed   int64
	sz     sizes
	states []*wlState
	calibs []float64 // ms, every sample of the run
	ladder *ladder
	tr     *tracer // traced pass only
}

func newBench(seed int64, sz sizes, only string) (*bench, error) {
	b := &bench{seed: seed, sz: sz}
	for _, w := range buildWorkloads(seed, sz) {
		if only == "" || w.name == only {
			b.states = append(b.states, &wlState{w: w})
		}
	}
	if len(b.states) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	return b, nil
}

func (b *bench) calibrate() {
	b.calibs = append(b.calibs, float64(calib())/float64(time.Millisecond))
}

// speed is the factor that scales a workload's timings to the reference
// machine: 1 for a workload whose time is slept, not computed.
func (b *bench) speed(w *workload) float64 {
	if w.cpuIdle {
		return 1
	}
	return calibRefMs / median(b.calibs)
}

// setups is how many times each workload is set up; setup_s is the median.
const setups = 5

// setup stands every workload up (compile, inputs, hub or server, one
// warm-up repetition), setups times over, keeping the last.
func (b *bench) setup() error {
	for _, st := range b.states {
		for k := 0; k < setups; k++ {
			if k > 0 {
				st.w.close()
			}
			t0 := time.Now()
			root := b.tr.root("bench.setup", st.w.name, k)
			err := st.w.setup(b.tr, root)
			b.tr.end(root)
			wall := time.Since(t0)
			b.calibrate()
			if err != nil {
				return fmt.Errorf("%s: setup: %w", st.w.name, err)
			}
			st.setupS = append(st.setupS, wall.Seconds())
		}
	}
	return nil
}

func (b *bench) close() {
	for _, st := range b.states {
		st.w.close()
	}
}

// round runs one repetition of every workload, in fixed order.
func (b *bench) round(tr *tracer, idx int) {
	for _, st := range b.states {
		ps := &st.untraced
		if tr != nil {
			ps = &st.traced
		}
		// Start from a collected heap: one workload's garbage is not the
		// next one's collection work.
		runtime.GC()
		u0 := readUsage()
		root := tr.root("bench.rep", st.w.name, idx)
		out := st.w.rep(tr, root)
		tr.end(root)
		u1 := readUsage()
		b.calibrate()
		ps.attempted += out.attempted + 1 // the repetition itself counts
		ps.failed += out.failed
		if out.failed > 0 {
			ps.failed++
			if ps.firstErr == "" {
				ps.firstErr = out.firstErr
			}
			continue // a failed repetition has no latency to report
		}
		ps.reps = append(ps.reps, repRecord{
			wallS:   out.wall.Seconds(),
			cpuS:    (u1.cpu - u0.cpu).Seconds(),
			allocMB: float64(u1.alloc-u0.alloc) / 1e6,
			counts:  out.counts,
		})
		ps.runs = append(ps.runs, out.runs...)
	}
}

// limit ends a pass: after a fixed number of rounds, or once a time
// window has passed and at least minRounds rounds are in.
type limit struct {
	rounds int
	window time.Duration
}

// minRounds is the fewest rounds a timed pass reports medians over.
const minRounds = 7

func (b *bench) pass(tr *tracer, lim limit) {
	start := time.Now()
	for r := 0; ; r++ {
		if lim.rounds > 0 && r >= lim.rounds {
			return
		}
		if lim.rounds == 0 && r >= minRounds && time.Since(start) >= lim.window {
			return
		}
		b.round(tr, r)
	}
}

func (ps *passState) walls() []float64 {
	out := make([]float64, len(ps.reps))
	for i, r := range ps.reps {
		out[i] = r.wallS
	}
	return out
}

// endToEndOf computes the end-to-end metrics of one workload from its
// untraced pass, at reference machine speed. ok is false when no
// repetition succeeded.
func (b *bench) endToEndOf(st *wlState) (vals map[string]float64, tailRead float64, ok bool) {
	ps := &st.untraced
	if len(ps.reps) == 0 || len(ps.runs) == 0 {
		return nil, 0, false
	}
	speed := b.speed(st.w)
	tailV, read := tail(ps.runs, 99)
	return map[string]float64{
		"work_per_s":  st.w.units / (median(ps.walls()) * speed),
		"run_tail_ms": tailV * speed,
		"setup_s":     median(st.setupS) * speed,
	}, read, true
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// attribution prices one leaf task of a workload from its own counts and
// the ladder's unit costs, in microseconds per layer.
type attribution struct {
	WallPerLeafUs float64            `json:"wall_per_leaf_us"`
	Layers        map[string]float64 `json:"layers_us"`
	Share         float64            `json:"attributed_share"`
	Unattributed  string             `json:"unattributed"`
}

const unattributedNote = "the remainder is what no ladder probe prices: goroutine scheduling and parking between ranks, " +
	"engine-side rule bookkeeping, argument decode in the worker's Tcl dispatch, and overlap (two cores share the wall)"

func attribute(c counts, wallS float64, evalUs float64, lad map[string]float64) attribution {
	if c.n[cLeaves] == 0 || wallS == 0 {
		return attribution{Unattributed: unattributedNote}
	}
	leaves := float64(c.n[cLeaves])
	a := attribution{
		WallPerLeafUs: wallS * 1e6 / leaves,
		Layers: map[string]float64{
			"lang (evaluator)":          evalUs / leaves,
			"adlb (put + leased get)":   float64(c.n[cPuts]) / leaves * lad["adlb.putget_rtt_us"],
			"adlb (data ops)":           float64(c.n[cDataOps]) / leaves * lad["adlb.store_retrieve_us"] / 3,
			"tcl (rule actions)":        float64(c.n[cRules]) / leaves * lad["tcl.proc_call_us"],
			"mpi (notification frames)": float64(c.n[cADLBNotifs]) / leaves * lad["mpi.inproc_rtt_us"] / 2,
		},
		Unattributed: unattributedNote,
	}
	var sum float64
	for _, v := range a.Layers {
		sum += v
	}
	a.Share = sum / a.WallPerLeafUs
	return a
}

// counterMetricsOf computes the workload-derived per-layer metrics from
// the traced pass, the ladder's unit costs and (for the tracing overhead)
// the untraced pass. It needs the ladder to have run.
func (b *bench) counterMetricsOf(st *wlState) (map[string]float64, attribution) {
	var c counts
	var wallS float64
	var cpu, alloc []float64
	speed := b.speed(st.w)
	for _, r := range st.traced.reps {
		c.add(r.counts)
		wallS += r.wallS * speed
		cpu = append(cpu, r.cpuS)
		alloc = append(alloc, r.allocMB)
	}
	reps := int64(len(st.traced.reps))
	lad := b.ladder.vals
	var evalUs float64
	for name, n := range c.evals {
		evalUs += float64(n) * lad[st.w.evalCost[name]]
	}
	att := attribute(c, wallS, evalUs, lad)
	m := map[string]float64{
		"turbine.rules_per_leaf":         ratio(c.n[cRules], c.n[cLeaves]),
		"turbine.control_per_leaf":       ratio(c.n[cControl], c.n[cLeaves]),
		"turbine.notifications_per_leaf": ratio(c.n[cTurbineNotifs], c.n[cLeaves]),
		"adlb.data_ops_per_leaf":         ratio(c.n[cDataOps], c.n[cLeaves]),
		"adlb.puts_per_leaf":             ratio(c.n[cPuts], c.n[cLeaves]),
		"adlb.notifications_per_leaf":    ratio(c.n[cADLBNotifs], c.n[cLeaves]),
		"adlb.gets_parked_ratio":         ratio(c.n[cGetsParked], c.n[cGetsServed]),
		"adlb.steal_hit_ratio":           ratio(c.n[cStealHits], c.n[cStealReqs]),
		"adlb.requeued":                  ratio(c.n[cRequeued], reps),
		"adlb.poisoned":                  ratio(c.n[cPoisoned], reps),
		"lang.parse_hit_ratio":           ratio(c.n[cParseHits], c.n[cParseHits]+c.n[cParseMisses]),
		"serve.rejected_share":           ratio(c.n[cRejected], c.n[cAdmitted]+c.n[cRejected]),
		"serve.timeouts":                 ratio(c.n[cTimeouts], reps),
		"serve.late_responses":           ratio(c.n[cLate], reps),
		"host.calib_ms":                  median(b.calibs),
		"host.calib_spread_pct":          100 * spread(b.calibs),
		"bench.attributed_share":         att.Share,
		// Filled below when a traced repetition succeeded.
		"bench.run_p50_ms":          0,
		"host.cpu_s_per_rep":        0,
		"host.alloc_mb_per_rep":     0,
		"bench.evaluator_share":     0,
		"bench.parallel_efficiency": 0,
		"bench.trace_overhead_pct":  0,
	}
	if reps > 0 {
		m["bench.run_p50_ms"] = median(st.traced.runs) * speed
		m["host.cpu_s_per_rep"] = median(cpu)
		m["host.alloc_mb_per_rep"] = median(alloc)
		workerS := float64(st.w.workers) * wallS
		m["bench.evaluator_share"] = evalUs / 1e6 / workerS
		m["bench.parallel_efficiency"] = st.w.sleep * float64(reps) / workerS
		if un := st.untraced.walls(); len(un) > 0 {
			m["bench.trace_overhead_pct"] = 100 * (median(st.traced.walls())/median(un) - 1)
		}
	}
	return m, att
}
