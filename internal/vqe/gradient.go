package vqe

import (
	"slices"

	"repro/internal/ansatz"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// forward leaves φ = U(θ)|ref⟩ in the driver's block-long phi and λ = H·φ
// in its lambda and returns E = Re⟨φ|λ⟩: the energy, and the two vectors
// the adjoint gradient at the same θ starts from.
func (d *Driver) forward(params []float64) float64 {
	d.prepareAnsatz(nil, params)
	readStart := telemetry.Now()
	if d.lambda == nil {
		d.lambda = make([]complex128, len(d.phi))
	}
	d.sub.h.MatVec(d.lambda, d.phi, d.sub.pool)
	e := real(linalg.VecDot(d.phi, d.lambda))
	mPhaseExpect.Since(readStart)
	d.lambdaAt = append(d.lambdaAt[:0], params...)
	d.lambdaValid = true
	return e
}

// adjointGradient fills g with ∂E/∂θ by the adjoint (reverse-sweep)
// method. At step k, from last to first, φ and λ hold U_k…U_1|ref⟩ and
// (U_{k+1}…U_m)†·H|ψ⟩, so g_k = 2·Re⟨λ|A_k|φ⟩, and one two-vector kernel
// call both reads that bracket and undoes exp(θ_k·A_k) on φ and λ. When
// the objective was just evaluated at the same θ — what L-BFGS always
// does — the forward pass is already in the driver's buffers and only the
// m backward sweeps run.
func (d *Driver) adjointGradient(params, g []float64) {
	if !d.lambdaValid || !slices.Equal(d.lambdaAt, params) {
		d.forward(params)
	}
	for k := len(d.sub.ops) - 1; k >= 0; k-- {
		g[k] = d.sub.ops[k].Exp(d.phi, d.lambda, -params[k])
		d.stats.GatesApplied += uint64(d.sub.ops[k].NumGroups())
	}
	d.lambdaValid = false // φ and λ are unwound to the reference
}

// PoolGradients returns ∂E/∂θ at θ=0 for appending each pool operator to
// the state ψ: gₖ = ⟨ψ|[H, Aₖ]|ψ⟩ = 2·Re⟨Hψ|Aₖψ⟩. Computing Hψ once makes
// the whole pool scan O(2ⁿ·(|H| + Σ|Aₖ|)) — this is the operator-selection
// step of Adapt-VQE, on a 2ⁿ state (Adapt itself scans in its block).
func PoolGradients(s *state.State, h *pauli.Op, poolOps []ansatz.Excitation) []float64 {
	hPsi := make([]complex128, s.Dim())
	pauli.NewPlan(h).MatVec(hPsi, s.Amplitudes(), s.WorkerPool())
	out := make([]float64, len(poolOps))
	for k, ex := range poolOps {
		out[k] = ex.Plan().Bracket(s, hPsi)
	}
	return out
}
