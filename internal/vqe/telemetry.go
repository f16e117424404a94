package vqe

import "repro/internal/telemetry"

// VQE phase instruments (no-ops until telemetry.Enable). The phase split
// matches the paper's evaluation axes: state preparation (ansatz
// execution) vs. measurement/readout (expectation extraction) vs. the
// classical optimizer loop — the breakdown cross-backend comparisons
// need instead of end-to-end wall clock.
var (
	mPhasePrepare  = telemetry.GetTimer("vqe.phase.prepare")
	mPhaseExpect   = telemetry.GetTimer("vqe.phase.expect")
	mPhaseRestore  = telemetry.GetTimer("vqe.phase.restore")
	mPhaseGradient = telemetry.GetTimer("vqe.phase.gradient")
	mPhaseOptimize = telemetry.GetTimer("vqe.phase.optimize")
	mEnergyEval    = telemetry.GetTimer("vqe.energy")
	mEnergyRecent  = telemetry.GetRing("vqe.energy.recent_ns", 256)
	mAdaptIter     = telemetry.GetTimer("vqe.adapt.iteration")

	// Blocks an exponential ansatz runs in: compiled (one per solve), and
	// the size and stored coefficients of the latest.
	mSubspaceCompiles = telemetry.GetCounter("vqe.subspace.compiles")
	mSubspaceDim      = telemetry.GetGauge("vqe.subspace.dim")
	mSubspaceNNZ      = telemetry.GetGauge("vqe.subspace.nnz")
)
