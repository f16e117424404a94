package probe

import (
	"repro/internal/pauli"
	"repro/internal/state"
)

// Pauli times the batched expectation engine on the post-ansatz state:
// plan construction, one Evaluate sweep, and one H|ψ⟩ MatVec.
func Pauli(e Env, in Inputs, h *pauli.Op, s *state.State) Metrics {
	var plan *pauli.Plan
	build := e.time("pauli.plan_build", func() { plan = pauli.NewPlan(h) })
	opts := pauli.ExpectationOptions{Workers: in.Spec.Backend.Workers}
	eval := e.time("pauli.evaluate", func() { _ = plan.Evaluate(s, opts) })
	dst := make([]complex128, s.Dim())
	matvec := e.time("pauli.matvec", func() { plan.MatVec(dst, s.Amplitudes(), s.WorkerPool()) })
	groups := float64(plan.NumGroups())
	return Metrics{
		"pauli.plan_build_ms":             Median(build),
		"pauli.groups":                    groups,
		"pauli.evaluate_ms":               Median(eval),
		"pauli.evaluate_ns_per_group_amp": Ratio(Median(eval)*1e6, groups*float64(s.Dim())),
		"pauli.matvec_ms":                 Median(matvec),
	}
}
