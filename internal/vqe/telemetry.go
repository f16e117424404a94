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

	// Subspace route: blocks compiled (one per solve), the size and
	// stored coefficients of the latest, and in-process drivers whose
	// ansatz was exponential but stayed on the 2ⁿ route.
	mSubspaceCompiles  = telemetry.GetCounter("vqe.subspace.compiles")
	mSubspaceFallbacks = telemetry.GetCounter("vqe.subspace.fallbacks")
	mSubspaceDim       = telemetry.GetGauge("vqe.subspace.dim")
	mSubspaceNNZ       = telemetry.GetGauge("vqe.subspace.nnz")
)
