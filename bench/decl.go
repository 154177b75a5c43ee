package main

// metricDecl declares one metric: BENCHMARK.json is this table (a test
// keeps them equal), and bench/README.md explains it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDecls = []workloadDecl{
	{"ensemble_small", "1500 python, r, julia pipelines on distinct floats: dispatch, not the evaluator, does the work"},
	{"ensemble_compute", "500 one-stage tasks of ~1 ms evaluator each: the interpreters do the work, dispatch about a tenth"},
	{"vector_scatter_gather", "a blob of n=8000 through vunpack, vpack, r, vunpack, vpack, julia: many small members through the data plane"},
	{"blob_pipeline", "8 pipelines passing one 8 MiB blob through four engines: few huge single-TD stores and retrieves"},
	{"cold_runs", "150 cold RunCompiled of the historical 24-task program: world stand-up is over half of each run"},
	{"elastic_tcp", "ensemble_small's program through ServeElastic and 2 TCP workers: the transport's cost by subtraction"},
	{"serve_frags", "closed-loop HTTP fragments at one resident swiftd: JSON, pools and admission inside a warm world"},
	{"balance_sleep", "256 leaf tasks sleeping a heavy-tailed 1-8 ms on 8 workers: load balance and stealing, CPU idle"},
}

// The end-to-end metrics are the same three on every workload; what a unit
// of work and a run are is the workload's (see workload.unit and .run).
// The median run latency is a per-layer metric, bench.run_p50_ms: cold-run
// latency is bimodal, its median sits in the valley between the modes and
// does not repeat within a tenth.
var endToEnd = []metricDecl{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "run_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func higher(name, unit string) metricDecl {
	return metricDecl{Name: name, Unit: unit, Better: "higher"}
}
func lower(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }

// ladderMetrics are unit costs of one layer driven alone. They are
// measured the same way whatever workload the run is for.
var ladderMetrics = []metricDecl{
	lower("stc.compile_us", "us"),
	lower("core.world_startup_us", "us"),
	lower("core.world_startup_allocs", "count"),
	lower("tcl.rule_eval_us", "us"),
	lower("tcl.proc_call_us", "us"),
	lower("tcl.allocs_per_eval", "count"),
	lower("turbine.control_task_us", "us"),
	lower("turbine.leafcall_noop_us", "us"),
	lower("turbine.vec_scaling_exp", "ratio"),
	lower("adlb.putget_rtt_us", "us"),
	lower("adlb.store_retrieve_us", "us"),
	lower("adlb.gather_ns_per_elem", "ns"),
	lower("adlb.scatter_ns_per_elem", "ns"),
	higher("adlb.blob_store_mb_per_s", "MB/s"),
	higher("adlb.blob_retrieve_mb_per_s", "MB/s"),
	lower("mpi.inproc_rtt_us", "us"),
	lower("mpi.tcp_rtt_us", "us"),
	higher("mpi.inproc_mb_per_s", "MB/s"),
	higher("mpi.tcp_mb_per_s", "MB/s"),
	higher("mpi.framepool_hit_ratio", "ratio"),
	lower("lang.eval_us.python", "us"),
	lower("lang.eval_us.r", "us"),
	lower("lang.eval_us.julia", "us"),
	lower("lang.eval_us.tcl", "us"),
	lower("lang.eval_heavy_us.python", "us"),
	lower("lang.eval_heavy_us.r", "us"),
	lower("lang.eval_heavy_us.julia", "us"),
	higher("lang.blob_bind_mb_per_s", "MB/s"),
	lower("lang.pool_checkout_us", "us"),
	lower("lang.pool_reset_us", "us"),
	lower("pylite.fragment_us", "us"),
	lower("rlite.fragment_us", "us"),
	lower("jlite.fragment_us", "us"),
	lower("pylite.allocs_per_fragment", "count"),
	lower("rlite.allocs_per_fragment", "count"),
	lower("jlite.allocs_per_fragment", "count"),
	lower("chunk.append_ns_per_row", "ns"),
	lower("chunk.read_ns_per_row", "ns"),
	higher("blob.pack_mb_per_s", "MB/s"),
	lower("serve.frag_direct_us", "us"),
	lower("serve.http_overhead_us", "us"),
	lower("serve.wire_blob_us", "us"),
	lower("serve.frag_p999_us", "us"),
	higher("serve.program_cache_hit_ratio", "ratio"),
}

// counterMetrics are read from the counters of the workload the run is
// for, on the traced pass; a counter the workload's front door does not
// return reads 0.
var counterMetrics = []metricDecl{
	lower("turbine.rules_per_leaf", "count"),
	lower("turbine.control_per_leaf", "count"),
	lower("turbine.notifications_per_leaf", "count"),
	lower("adlb.data_ops_per_leaf", "count"),
	lower("adlb.puts_per_leaf", "count"),
	lower("adlb.notifications_per_leaf", "count"),
	lower("adlb.gets_parked_ratio", "ratio"),
	higher("adlb.steal_hit_ratio", "ratio"),
	lower("adlb.requeued", "count"),
	lower("adlb.poisoned", "count"),
	higher("lang.parse_hit_ratio", "ratio"),
	lower("serve.rejected_share", "ratio"),
	lower("serve.timeouts", "count"),
	lower("serve.late_responses", "count"),
	lower("host.calib_ms", "ms"),
	lower("host.calib_spread_pct", "%"),
	lower("host.cpu_s_per_rep", "s"),
	lower("host.alloc_mb_per_rep", "MB"),
	lower("bench.run_p50_ms", "ms"),
	higher("bench.evaluator_share", "ratio"),
	higher("bench.parallel_efficiency", "ratio"),
	higher("bench.attributed_share", "ratio"),
	lower("bench.trace_overhead_pct", "%"),
}

func perLayer() []metricDecl {
	return append(append([]metricDecl(nil), ladderMetrics...), counterMetrics...)
}
