package main

// metricDef describes one metric as BENCHMARK.json records it. bound is
// the share of the parent's median by which an end-to-end metric may get
// worse; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, in its own unit of work:
//
//	workload     work_per_s counts        op_p50_ms is the latency of
//	adapt12      Adapt-VQE solves         one solve
//	wide20       energy evaluations       one energy evaluation
//	serve_mix    jobs                     one job, submit → terminal frame
//	serve_sweep  sweep points             one family, submit → family done
//
// Every bound is the contract's ceiling of 0.25. A bound has to be three
// times the spread ten seeded runs show, and on the shared 2-core host the
// numbers were taken on, that spread is 0.03–0.09 in a quiet hour and
// reached 0.20 in a noisy one (bench/README.md has the four sets).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.25},
}

// alias is a name ISSUE 13 gave to one end-to-end metric on the workload
// that defines it; the report prints both.
type alias struct {
	name, workload, metric string
	scale                  float64
	unit                   string
}

var aliases = []alias{
	{"adapt_solve_s", "adapt12", "op_p50_ms", 1e-3, "s"},
	{"evals_per_s", "wide20", "work_per_s", 1, "1/s"},
	{"jobs_per_s", "serve_mix", "work_per_s", 1, "1/s"},
	{"job_p50_ms", "serve_mix", "op_p50_ms", 1, "ms"},
	{"family_p50_s", "serve_sweep", "op_p50_ms", 1e-3, "s"},
	{"points_per_s", "serve_sweep", "work_per_s", 1, "1/s"},
}

// perLayer are the metrics of single layers, taken in the traced run. A
// workload reports 0 for a layer that is not on its path.
var perLayer = []metricDef{
	{"chem.molecule_ms", "ms", "lower", 0},
	{"chem.fci_ms", "ms", "lower", 0},
	{"fermion.observable_ms", "ms", "lower", 0},
	{"fermion.terms", "count", "lower", 0},
	{"ansatz.circuit_ms", "ms", "lower", 0},
	{"ansatz.gates", "count", "lower", 0},
	{"ansatz.params", "count", "lower", 0},
	{"state.run_ms", "ms", "lower", 0},
	{"state.run_ns_per_gate_amp", "ns", "lower", 0},
	{"state.gates_applied", "count", "lower", 0},
	{"state.compile_ms", "ms", "lower", 0},
	{"state.exec_fused_ms", "ms", "lower", 0},
	{"state.fused_ns_per_gate_amp", "ns", "lower", 0},
	{"state.fused_ops", "count", "lower", 0},
	{"state.compile_share", "share", "lower", 0},
	{"state.bytes_per_exec_computed", "B", "lower", 0},
	{"pauli.plan_build_ms", "ms", "lower", 0},
	{"pauli.groups", "count", "lower", 0},
	{"pauli.evaluate_ms", "ms", "lower", 0},
	{"pauli.evaluate_ns_per_group_amp", "ns", "lower", 0},
	{"pauli.matvec_ms", "ms", "lower", 0},
	{"vqe.energy_ms", "ms", "lower", 0},
	{"vqe.energy_p95_ms", "ms", "lower", 0},
	{"vqe.energy_unattributed_share", "share", "lower", 0},
	{"vqe.pool_gradients_ms", "ms", "lower", 0},
	{"vqe.iteration_p50_ms", "ms", "lower", 0},
	{"vqe.energy_evaluations", "count", "lower", 0},
	{"vqe.adapt_iterations", "count", "lower", 0},
	{"runspec.parse_hash_us", "us", "lower", 0},
	{"runspec.setup_ms", "ms", "lower", 0},
	{"runspec.setup_share", "share", "lower", 0},
	{"runspec.sweep_inproc_s", "s", "lower", 0},
	{"runspec.warm_start_share", "share", "higher", 0},
	{"runspec.evals_per_point", "count", "lower", 0},
	{"server.boot_ms", "ms", "lower", 0},
	{"server.submit_p50_ms", "ms", "lower", 0},
	{"server.submit_p95_ms", "ms", "lower", 0},
	{"server.queue_wait_p50_ms", "ms", "lower", 0},
	{"server.queue_wait_p95_ms", "ms", "lower", 0},
	{"server.run_p50_ms", "ms", "lower", 0},
	{"server.run_p95_ms", "ms", "lower", 0},
	{"server.notify_p50_ms", "ms", "lower", 0},
	{"server.overhead_share", "share", "lower", 0},
	{"server.job_p95_ms", "ms", "lower", 0},
	{"server.job_p99_ms", "ms", "lower", 0},
	{"server.hit_p50_ms", "ms", "lower", 0},
	{"server.miss_p50_ms", "ms", "lower", 0},
	{"server.cache_hit_share", "share", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.retried", "count", "lower", 0},
	{"server.cpu_ms_per_job", "ms", "lower", 0},
	{"server.first_point_ms", "ms", "lower", 0},
	{"server.point_gap_p50_ms", "ms", "lower", 0},
	{"server.family_overhead_share", "share", "lower", 0},
	{"server.restart_ready_ms", "ms", "lower", 0},
	{"journal.append_p50_us", "us", "lower", 0},
	{"journal.append_p95_us", "us", "lower", 0},
	{"journal.appends_per_s_c2", "1/s", "higher", 0},
	{"journal.bytes_per_job", "B", "lower", 0},
	{"journal.replay_ms", "ms", "lower", 0},
	{"telemetry.prepare_share", "share", "lower", 0},
	{"telemetry.expect_share", "share", "lower", 0},
	{"telemetry.gradient_share", "share", "lower", 0},
	{"telemetry.trace_overhead_share", "share", "lower", 0},
	{"process.allocs_per_eval", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.cpu_s", "s", "lower", 0},
	{"process.peak_rss_mb", "MiB", "lower", 0},
	{"process.client_cpu_share", "share", "lower", 0},
}

// runSeconds is the window the acceptance driver asks for; with four
// workloads it makes 92 runs, which have to fit 3420 s with their builds.
const runSeconds = 20
