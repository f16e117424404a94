package pauli

import "repro/internal/telemetry"

// Expectation-engine instruments (no-ops until telemetry.Enable). The
// plan gauges record the most recently built plan — one observable
// dominates a VQE run, so last-value-wins is the right semantics.
var (
	mPlanBuild  = telemetry.GetTimer("pauli.plan.build")
	mPlanGroups = telemetry.GetGauge("pauli.plan.groups")
	mPlanTerms  = telemetry.GetGauge("pauli.plan.terms")
	mPlanEval   = telemetry.GetTimer("pauli.plan.evaluate")
	mPlanMatVec = telemetry.GetTimer("pauli.plan.matvec")
	mNaiveEval  = telemetry.GetTimer("pauli.naive.evaluate")
)
