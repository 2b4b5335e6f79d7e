package main

// metric names one reported number and its unit. The two lists below are
// the benchmark's interface: BENCHMARK.json lists exactly these names and
// units (dsload_test.go checks it), an untraced run prints every endToEnd
// metric and a traced run every perLayer metric, on every workload.
type metric struct {
	name, unit string
}

// endToEnd are the numbers a dsserve user sees; BENCHMARK.json fixes the
// bound by which each may worsen. Times and rates are scaled to the
// reference speed, with stolen CPU time taken out (calibrate.go).
var endToEnd = []metric{
	{"setup_s", "s"},          // median of the set-ups in one run: boot, generate, pre-warm
	{"latency_mean_ms", "ms"}, // mean latency of requests sent one at a time
	{"capacity_rps", "1/s"},   // requests/s with nproc requests in flight
	{"points_per_s", "1/s"},   // evaluation points/s with nproc requests in flight
	{"success_rate", "ratio"}, // answered and correct, over attempted
	{"peak_rss_mb", "MB"},     // VmHWM of the whole process
}

// perLayer come from a separate traced run: spans around each node's
// handler, /metrics scrapes, and sequential replays of sampled requests
// through the public layer functions. Zero means the workload never
// exercised that layer.
var perLayer = []metric{
	{"service.decode_us", "us"},
	{"workloads.build_us", "us"},
	{"lang.parse_us", "us"},
	{"cache.key_us", "us"},
	{"service.encode_us", "us"},
	{"service.resp_bytes", "bytes"},
	{"service.transport_us", "us"},
	{"service.run_handler_us", "us"},
	{"service.sweep_handler_ms", "ms"},
	{"service.compile_handler_ms", "ms"},
	{"service.verify_handler_ms", "ms"},
	{"codegen.run_ms", "ms"},
	{"codegen.plan_us", "us"},
	{"deps.enforced_us", "us"},
	{"sim.cycles_per_s", "1/s"},
	{"frontend.lower_us", "us"},
	{"verify.static_ms", "ms"},
	{"cache.sweep_keys_ms", "ms"},
	{"sim.redundant_share", "ratio"},
	{"service.pool_job_ms_mean", "ms"},
	{"service.pool_queue_depth_mean", "count"},
	{"service.pool_queue_depth_max", "count"},
	{"service.rejected_429", "count"},
	{"service.jobs_completed", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.dedups", "count"},
	{"cache.evictions", "count"},
	{"cluster.forward_share", "ratio"},
	{"cluster.forwarded_handler_us", "us"},
	{"cluster.hop_overhead_us", "us"},
	{"cluster.steals_per_sweep", "count"},
	{"cluster.job_imbalance", "ratio"},
	{"cluster.peer_errors", "count"},
	{"cluster.replica_pushes", "count"},
	{"cluster.replica_drops", "count"},
	{"cluster.replica_hits", "count"},
	{"loadgen.achieved_rps", "1/s"},
	{"loadgen.wake_late_p99_ms", "ms"},
	{"loadgen.overdue_share", "ratio"},
	{"loadgen.latency_p50_ms", "ms"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.latency_p999_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.steal_share", "ratio"}, // share of the CPU time asked for that the hypervisor gave to another guest
	{"loadgen.cpu_speed", "ratio"},   // reference kernel's work per CPU-second over refRate (calibrate.go)
}
