package main

// metricDef is one reported metric and its unit. The lists mirror
// BENCHMARK.json's end_to_end and per_layer entries (TestMetricsMatchManifest
// keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"points_per_s", "points/s"},
	{"resubmit_s_p50", "s"},
	{"resubmit_s_p90", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb_per_point", "MiB/point"},
}

// perLayer are the metrics a traced run prints, for every workload. A
// layer the workload does not exercise reads 0 (for example lease.* on
// the in-process workloads).
var perLayer = []metricDef{
	// construction: routing, table, network.New
	{"routing.build_s", "s"},
	{"table.build_s", "s"},
	{"table.entries", "count"},
	{"table.ns_per_entry", "ns"},
	{"network.new_s_p50", "s"},
	{"network.new_s_sum", "s"},
	{"setup.core_warm_s", "s"},
	// kernel: network, router, flow, traffic
	{"network.run_s", "s"},
	{"network.cycles", "count"},
	{"network.cycles_skipped", "count"},
	{"network.flit_hops", "count"},
	{"network.messages", "count"},
	{"network.ns_per_cycle", "ns"},
	{"network.ns_per_flit_hop", "ns"},
	{"network.shard_speedup", "ratio"},
	{"network.event_speedup", "ratio"},
	// sweep
	{"sweep.point_s_p50", "s"},
	{"sweep.point_s_p90", "s"},
	{"sweep.cache_hits", "count"},
	{"sweep.cache_misses", "count"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.busy_frac", "ratio"},
	{"sweep.bisect_probes", "count"},
	{"sweep.bisect_cycles", "count"},
	// store
	{"store.open_s", "s"},
	{"store.entries", "count"},
	{"store.quarantined", "count"},
	{"store.get_s_p50", "s"},
	{"store.put_s_p50", "s"},
	// HTTP and the serving client
	{"http.requests", "count"},
	{"http.errors", "count"},
	{"http.polls_per_job", "count"},
	{"http.submit_s_p50", "s"},
	{"http.status_s_p50", "s"},
	{"http.results_s_p50", "s"},
	{"http.results_bytes", "bytes"},
	{"serve.cold_overhead_frac", "ratio"},
	{"client.wait_frac", "ratio"},
	{"client.lag_frac", "ratio"},
	// cluster leases
	{"lease.claims", "count"},
	{"lease.empty_claims", "count"},
	{"lease.claim_s_p50", "s"},
	{"lease.heartbeats", "count"},
	{"lease.complete_s_p50", "s"},
	{"lease.requeues", "count"},
	{"lease.late_reports", "count"},
	{"lease.useful_ratio", "ratio"},
	{"lease.worker_busy_frac", "ratio"},
	{"lease.idle_frac", "ratio"},
	// the run itself and its trace
	{"resubmit.samples", "count"},
	{"failed_frac", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"self.round_s", "s"},
	{"self.job_s", "s"},
	{"self.point_s", "s"},
	{"self.http_s", "s"},
	{"self.lease_s", "s"},
}
