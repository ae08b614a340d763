package main

// metric declares one reported number. For a per-layer metric, moves
// names the end-to-end metric, and the workload, that a change to the
// layer should show up in.
type metric struct {
	name, unit, better string
	moves              string
}

// endToEnd is what a user of the program sees, measured untraced on
// every workload. ops are experiment tables on paper-eval and jobs on
// the other workloads.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
}

// paperTables is the paper's §IV–V evaluation: Figs. 5–10 over all
// six applications, in registry order.
var paperTables = []string{
	"fig5", "fig6", "fig7",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f",
	"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
	"fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f",
}

// selfLayers are the layers the traced run attributes self time to:
// the program modules the benchmark's spans call into.
var selfLayers = []string{
	"experiments", "core", "sim", "trace", "workload",
	"cluster", "sched", "serve", "obs", "slo",
}

// perLayer lists every traced-run metric. A traced run reports all of
// them; a layer the workload never enters reports 0, which is itself
// the prediction (scheduler metrics stay 0 on paper-eval, observer
// metrics stay 0 on serve-ingest).
var perLayer = func() []metric {
	var out []metric
	for _, id := range paperTables {
		out = append(out,
			metric{"experiments." + id + ".s", "s", "lower", "paper-eval ops_per_s"},
			metric{"experiments." + id + ".allocs", "count", "lower", "paper-eval allocs_per_op"})
	}
	out = append(out, []metric{
		{"core.enqueue_ns_per_task", "ns", "lower", "paper-eval ops_per_s"},
		{"sim.barrier_ns_per_step", "ns", "lower", "paper-eval ops_per_s"},
		{"sim.steps_per_task", "count", "lower", "paper-eval ops_per_s"},
		{"trace.spans_per_task", "count", "lower", "paper-eval allocs_per_op"},
		{"trace.summarize_us", "us", "lower", "paper-eval ops_per_s"},
		{"runtime.gc_cpu_frac", "ratio", "lower", "every workload ops_per_s"},

		{"workload.build_scenario_ms", "ms", "lower", "cluster-batch setup_s"},
		{"cluster.run_s", "s", "lower", "cluster-batch ops_per_s"},
		{"sim.steps_per_job", "count", "lower", "cluster-batch ops_per_s"},
		{"sim.ns_per_step", "ns", "lower", "cluster-batch ops_per_s"},
		{"trace.spans_per_job", "count", "lower", "cluster-batch allocs_per_op"},
		{"sched.picks_per_job", "count", "lower", "cluster-batch ops_per_s"},
		{"sched.pick_ns", "ns", "lower", "cluster-batch ops_per_s"},
		{"cluster.steals", "count", "higher", "cluster-batch virt makespan"},
		{"cluster.preempts", "count", "higher", "cluster-batch virt p95"},
		{"cluster.staged_mb", "MB", "lower", "cluster-batch virt makespan"},
		{"residency.hit_ratio", "ratio", "higher", "cluster-batch virt makespan"},
		{"residency.evicted_mb", "MB", "lower", "cluster-batch virt makespan"},
		{"residency.invalidated_mb", "MB", "lower", "cluster-batch virt makespan"},
		{"device.kernel_util", "ratio", "higher", "cluster-batch virt makespan"},
		{"pcie.link_util", "ratio", "lower", "cluster-batch virt p95"},
		{"cluster.virt_p95_ms", "ms", "lower", "cluster-batch simulated p95 job latency"},
		{"cluster.virt_p95_n", "count", "higher", "cluster-batch sample count of virt_p95_ms"},
		{"cluster.virt_makespan_ms", "ms", "lower", "cluster-batch simulated makespan"},

		{"serve.submit_us.p50", "us", "lower", "serve ops_per_s"},
		{"serve.submit_us.p99", "us", "lower", "serve ops_per_s"},
		{"serve.submit_us.n", "count", "higher", "serve sample count"},
		{"serve.outcome_lag_us.p50", "us", "lower", "serve ops_per_s"},
		{"serve.outcome_lag_us.p99", "us", "lower", "serve ops_per_s"},
		{"serve.outcome_lag_us.n", "count", "higher", "serve sample count"},
		{"serve.jobs_per_epoch", "count", "higher", "serve ops_per_s"},
		{"serve.epochs", "count", "lower", "serve sample count of jobs_per_epoch"},
		{"cluster.session.submit_us", "us", "lower", "serve ops_per_s"},
		{"cluster.session.run_epoch_us.first10", "us", "lower", "serve ops_per_s"},
		{"cluster.session.run_epoch_us.last10", "us", "lower", "serve ops_per_s"},
		{"serve.frontier_us_per_job", "us", "lower", "serve ops_per_s"},
		{"serve.heap_per_job_b", "B", "lower", "serve heap_live_mb"},

		{"telemetry.events_per_job", "count", "lower", "serve-observed ops_per_s"},
		{"telemetry.snapshots", "count", "lower", "serve-observed ops_per_s"},
		{"slo.on_event_ns", "ns", "lower", "serve-observed ops_per_s"},
		{"slo.on_metrics_us", "us", "lower", "serve-observed ops_per_s"},
		{"obs.exporter_observe_us", "us", "lower", "serve-observed ops_per_s"},
		{"obs.flight_on_event_ns", "ns", "lower", "serve-observed ops_per_s"},
		{"obs.scrape_ms", "ms", "lower", "serve-observed ops_per_s"},
		{"obs.scrape_kb", "KB", "lower", "serve-observed heap_live_mb"},

		{"tracing.ops_per_s_delta", "1/s", "higher", "traced minus untraced ops_per_s"},
	}...)
	for _, l := range selfLayers {
		out = append(out, metric{"layer." + l + ".self_us_per_op", "us", "lower", "ops_per_s of the workloads entering " + l})
	}
	return out
}()
