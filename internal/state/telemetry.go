package state

import "repro/internal/telemetry"

// Engine instruments, resolved once at init and mutated lock-free on the
// hot paths. All are no-ops until telemetry.Enable (the cmd binaries'
// -metrics flag); the disabled check is one atomic load per event.
var (
	// Gate-kernel dispatch counters: which kernel served each apply. The
	// 2q split distinguishes the sparse fused-staircase kernel (≤ 2
	// nonzeros per row, the gate-fusion payoff path) from the dense 4×4
	// kernel.
	mGate1Q       = telemetry.GetCounter("state.gate.1q")
	mGateCX       = telemetry.GetCounter("state.gate.cx")
	mGateCZ       = telemetry.GetCounter("state.gate.cz")
	mGateRZ       = telemetry.GetCounter("state.gate.rz")
	mGate2QSparse = telemetry.GetCounter("state.gate.2q_sparse")
	mGate2QDense  = telemetry.GetCounter("state.gate.2q_dense")
	mGatePairs    = telemetry.GetCounter("state.gate.pair_rotation")
	mCircuitRun   = telemetry.GetTimer("state.circuit.run")

	// Worker-pool counters: dispatched parallel runs, chunk tasks fed to
	// workers, inline (below-threshold or serial) fallbacks, and the
	// cumulative busy time across workers — utilization is busy time
	// divided by wall time × pool width.
	mPoolRuns    = telemetry.GetCounter("state.pool.runs")
	mPoolChunks  = telemetry.GetCounter("state.pool.chunks")
	mPoolInline  = telemetry.GetCounter("state.pool.inline")
	mPoolBusy    = telemetry.GetTimer("state.pool.busy")
	mPoolWorkers = telemetry.GetGauge("state.pool.workers")

	// Fused-execution instruments: compile and run wall clock, source vs
	// executed gate counts (the paper's Figure 4 reduction, now a runtime
	// quantity) and pass/op tallies: one sweep per segment or marker, and
	// the amplitudes the ops' kernels swept (each op counts the rest
	// indices the state's support left it, times 2^arity, per tile).
	mFusionCompile     = telemetry.GetTimer("fusion.compile")
	mFusionRun         = telemetry.GetTimer("fusion.run")
	mFusionGatesBefore = telemetry.GetCounter("fusion.gates_before")
	mFusionGatesAfter  = telemetry.GetCounter("fusion.gates_after")
	mFusionSweeps      = telemetry.GetCounter("fusion.sweeps")
	mFusionOps         = telemetry.GetCounter("fusion.ops")
	mFusionAmpsSwept   = telemetry.GetCounter("fusion.amps_swept")
)
