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
	// mRestrict counts plans restricted to a subspace (Restrict calls).
	mRestrict = telemetry.GetCounter("pauli.restrict")
	// mRestrictCouplings counts the coefficients a(i) Restrict and
	// RestrictPairs evaluate on sectors, and mRestrictVisits the (row,
	// group) pairs Restrict evaluates on sectors; mRanks counts sector
	// ranks computed in full (Subspace.rank).
	mRestrictCouplings = telemetry.GetCounter("pauli.restrict.couplings")
	mRestrictVisits    = telemetry.GetCounter("pauli.restrict.visits")
	mRanks             = telemetry.GetCounter("pauli.sector.ranks")
)
