package main

// The metric catalog: every metric the benchmark reports, with its unit,
// direction, the layer it measures and the end-to-end metrics it should
// move. BENCHMARK.json lists the same names (metrics_test.go checks it).

// metricDef describes one reported metric. For an end-to-end metric,
// Native names the workload whose behaviour defines it; the other
// workloads report the analogue described in README.md. For a per-layer
// metric, Moves names the end-to-end metrics it should move and on which
// workload ("metric@workload").
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Native string
	Moves  []string
}

// endToEnd lists the end-to-end metrics, reported by untraced runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Native: "all"},
	{Name: "converge_s", Unit: "s", Better: "lower", Native: "periodic"},
	{Name: "repass_s", Unit: "s", Better: "lower", Native: "periodic"},
	{Name: "report_cpu_us", Unit: "us", Better: "lower", Native: "periodic"},
	{Name: "join_p50_ms", Unit: "ms", Better: "lower", Native: "stream-join"},
	{Name: "join_p95_ms", Unit: "ms", Better: "lower", Native: "stream-join"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Native: "inproc-stream"},
	{Name: "decide_p50_ms", Unit: "ms", Better: "lower", Native: "inproc-stream"},
	{Name: "decide_p99_ms", Unit: "ms", Better: "lower", Native: "inproc-stream"},
	{Name: "goodput_mbps", Unit: "Mbit/s", Better: "higher", Native: "inproc-stream"},
}

// Shorthands for the per-layer mapping.
var (
	toReportCPU = []string{"report_cpu_us@periodic"}
	toConverge  = []string{"converge_s@periodic"}
	toPasses    = []string{"converge_s@periodic", "repass_s@periodic", "join_p50_ms@stream-join", "join_p95_ms@stream-join"}
	toJoin      = []string{"join_p50_ms@stream-join", "join_p95_ms@stream-join"}
	toPush      = []string{"converge_s@periodic", "join_p95_ms@stream-join"}
	toDecide    = []string{"decide_p50_ms@inproc-stream", "decide_p99_ms@inproc-stream", "events_per_s@inproc-stream"}
	toEngines   = []string{"decide_p99_ms@inproc-stream", "converge_s@periodic"}
	toRuntime   = []string{"converge_s@periodic", "report_cpu_us@periodic"}
	toGenerator = []string{"report_cpu_us@periodic", "join_p50_ms@stream-join"}
)

// perLayer lists the per-layer metrics, reported by traced runs. A layer
// a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{Name: "ctlnet.agent.send_us", Unit: "us", Better: "lower", Moves: toReportCPU},
	{Name: "ctlnet.wire.same_frac", Unit: "ratio", Better: "higher", Moves: toReportCPU},
	{Name: "ctlnet.wire.rx_bytes_per_report", Unit: "B", Better: "lower", Moves: toReportCPU},
	{Name: "ctlnet.wire.tx_bytes_per_push", Unit: "B", Better: "lower", Moves: toConverge},
	{Name: "ctlnet.shard.reports_per_batch", Unit: "count", Better: "higher", Moves: toReportCPU},
	{Name: "ctlnet.shard.coalesced", Unit: "count", Better: "higher", Moves: toReportCPU},
	{Name: "ctlnet.shard.shed", Unit: "count", Better: "lower", Moves: toReportCPU},
	{Name: "ctlnet.server.reallocate_s", Unit: "s", Better: "lower", Moves: []string{"converge_s@periodic", "repass_s@periodic"}},
	{Name: "ctlnet.pass.view_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "ctlnet.pass.assoc_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "ctlnet.pass.alloc_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "ctlnet.pass.rank_eval_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "ctlnet.pass.gate_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "ctlnet.pass.push_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "ctlnet.pass.unattributed_s", Unit: "s", Better: "lower", Moves: toPasses},
	{Name: "core.graph.pairs_scanned", Unit: "count", Better: "lower", Moves: toConverge},
	{Name: "ctlnet.stream.passes", Unit: "count", Better: "lower", Moves: toJoin},
	{Name: "ctlnet.stream.pass_p50_ms", Unit: "ms", Better: "lower", Moves: toJoin},
	{Name: "ctlnet.stream.pass_p95_ms", Unit: "ms", Better: "lower", Moves: toJoin},
	{Name: "ctlnet.stream.aps_per_pass", Unit: "count", Better: "lower", Moves: toJoin},
	{Name: "ctlnet.stream.marks", Unit: "count", Better: "lower", Moves: toJoin},
	{Name: "ctlnet.stream.dirty_max", Unit: "count", Better: "lower", Moves: toJoin},
	{Name: "ctlnet.push.p50_ms", Unit: "ms", Better: "lower", Moves: toPush},
	{Name: "ctlnet.push.p99_ms", Unit: "ms", Better: "lower", Moves: toPush},
	{Name: "ctlnet.push.spread_s", Unit: "s", Better: "lower", Moves: toPush},
	{Name: "ctlnet.push.deduped", Unit: "count", Better: "higher", Moves: toPush},
	{Name: "core.stream.pump_ms.noop_p50", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.pump_ms.noop_p99", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.pump_ms.move_p50", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.pump_ms.move_p99", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.pump_ms.churn_p50", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.pump_ms.churn_p99", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.fullpass_s", Unit: "s", Better: "lower", Moves: toDecide},
	{Name: "core.stream.admit_ms", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.neigh_ms", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.reopt_ms", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.gate_ms", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.rank_eval_ms", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.assoc_eval_ms", Unit: "ms", Better: "lower", Moves: toDecide},
	{Name: "core.stream.noop_skips", Unit: "count", Better: "higher", Moves: toDecide},
	{Name: "core.stream.local_reopts", Unit: "count", Better: "lower", Moves: toDecide},
	{Name: "core.stream.engine_deferrals", Unit: "count", Better: "lower", Moves: toDecide},
	{Name: "core.stream.switches_applied", Unit: "count", Better: "lower", Moves: toDecide},
	{Name: "core.assoc.engine_builds", Unit: "count", Better: "lower", Moves: toEngines},
	{Name: "core.assoc.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: toEngines},
	{Name: "core.alloc.rank_evals", Unit: "count", Better: "lower", Moves: toEngines},
	{Name: "core.alloc.rank_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: toEngines},
	{Name: "core.alloc.fallbacks", Unit: "count", Better: "lower", Moves: toEngines},
	{Name: "core.alloc.partition_reuses", Unit: "count", Better: "higher", Moves: toEngines},
	{Name: "core.partition.rebuilds", Unit: "count", Better: "lower", Moves: toEngines},
	{Name: "core.graph.candidate_ratio", Unit: "ratio", Better: "lower", Moves: toEngines},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Moves: toRuntime},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: toRuntime},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: toRuntime},
	{Name: "bench.gen_late_max_ms", Unit: "ms", Better: "lower", Moves: toGenerator},
}
