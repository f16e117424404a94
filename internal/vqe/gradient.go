package vqe

import (
	"slices"

	"repro/internal/ansatz"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// forward leaves φ = U(θ)|ref⟩ in the simulator — or, on the subspace
// route, in the driver's block-long phi — and λ = H·φ in the driver's
// buffer and returns E = Re⟨φ|λ⟩: the energy, and the two vectors the
// adjoint gradient at the same θ starts from.
func (d *Driver) forward(params []float64) float64 {
	if d.sub != nil {
		d.prepareSubspace(params)
	} else {
		d.prepareAnsatz(d.simulator(), params)
	}
	phi := d.amplitudes()
	readStart := telemetry.Now()
	if len(d.lambda) != len(phi) {
		d.lambda = make([]complex128, len(phi))
	}
	if d.sub != nil {
		d.sub.h.MatVec(d.lambda, phi, d.sub.pool)
	} else {
		d.plan.MatVec(d.lambda, phi, d.sim.WorkerPool())
	}
	e := real(linalg.VecDot(phi, d.lambda))
	mPhaseExpect.Since(readStart)
	d.lambdaAt = append(d.lambdaAt[:0], params...)
	d.lambdaValid = true
	return e
}

// amplitudes is the vector the last preparation left: block-long on the
// subspace route, the simulator's 2ⁿ otherwise.
func (d *Driver) amplitudes() []complex128 {
	if d.sub != nil {
		return d.phi
	}
	return d.sim.Amplitudes()
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
	if d.sub != nil {
		for k := len(d.sub.ops) - 1; k >= 0; k-- {
			g[k] = d.sub.ops[k].Exp(d.phi, d.lambda, -params[k])
			d.stats.GatesApplied += uint64(d.sub.ops[k].NumGroups())
		}
	} else {
		ops := d.exp.Operators()
		for k := len(ops) - 1; k >= 0; k-- {
			g[k] = ops[k].Plan().Exp(d.sim, d.lambda, -params[k])
		}
	}
	d.lambdaValid = false // φ and λ are unwound to the reference
}

// prepareSubspace is prepareAnsatz on the subspace route: it leaves
// U(θ)|ref⟩ in d.phi, counted as one ansatz execution of the reference
// circuit's gates plus one sweep per generator group.
func (d *Driver) prepareSubspace(params []float64) {
	start := telemetry.Now()
	d.lambdaValid = false
	if len(params) != len(d.sub.ops) {
		panic(core.ErrDimensionMismatch)
	}
	if d.phi == nil {
		d.phi = make([]complex128, d.sub.h.Dim())
	}
	d.stats.GatesApplied += uint64(d.ref.GateCount() + d.sub.prepare(d.phi, params))
	d.stats.AnsatzExecutions++
	mPhasePrepare.Since(start)
}

// PoolGradients returns ∂E/∂θ at θ=0 for appending each pool operator to
// the state ψ: gₖ = ⟨ψ|[H, Aₖ]|ψ⟩ = 2·Re⟨Hψ|Aₖψ⟩. Computing Hψ once makes
// the whole pool scan O(2ⁿ·(|H| + Σ|Aₖ|)) — this is the operator-selection
// step of Adapt-VQE.
func PoolGradients(s *state.State, h *pauli.Op, poolOps []ansatz.Excitation) []float64 {
	return poolGradients(s, pauli.NewPlan(h), make([]complex128, s.Dim()), poolOps)
}

// poolGradients is PoolGradients on a plan and an Hψ buffer the caller
// keeps across scans.
func poolGradients(s *state.State, plan *pauli.Plan, hPsi []complex128, poolOps []ansatz.Excitation) []float64 {
	plan.MatVec(hPsi, s.Amplitudes(), s.WorkerPool())
	out := make([]float64, len(poolOps))
	for k, ex := range poolOps {
		out[k] = ex.Plan().Bracket(s, hPsi)
	}
	return out
}
