package vqe

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/pauli"
)

// DeflationOptions configures variational quantum deflation (VQD, Higgott–
// Wang–Brierley): excited states are found by minimizing
// ⟨H⟩ + β·Σᵢ |⟨ψᵢ|ψ(θ)⟩|² against the previously converged states.
type DeflationOptions struct {
	// NumStates is how many eigenstates to compute (≥ 1; 1 = plain VQE).
	NumStates int
	// Beta is the overlap penalty weight; it must exceed the spectral gap
	// (default: 2·‖H‖₁, always sufficient).
	Beta float64
	// Workers for simulation.
	Workers int
	// Restarts per state from perturbed parameters (default 3) to escape
	// the previous state's basin.
	Restarts int
	// Seed for restart perturbations.
	Seed uint64
	// LBFGS budget per optimization.
	LBFGS opt.LBFGSOptions
}

// DeflationState is one converged eigenstate approximation.
type DeflationState struct {
	Index  int
	Energy float64
	Params []float64
}

// Deflation computes the lowest NumStates eigenvalues of h with the given
// exponential ansatz. Each state minimizes the deflated objective over a
// fresh parameter vector, warm-restarted a few times. A canceled ctx stops
// the search at the next optimizer iteration and is returned as the error.
func Deflation(ctx context.Context, h *pauli.Op, a Exponential, o DeflationOptions) ([]DeflationState, error) {
	if o.NumStates < 1 {
		return nil, fmt.Errorf("%w: NumStates %d", core.ErrInvalidArgument, o.NumStates)
	}
	if o.Beta == 0 {
		o.Beta = 2 * h.OneNorm()
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	if o.LBFGS.MaxIter == 0 {
		o.LBFGS.MaxIter = 300
	}
	seed := o.Seed
	if seed == 0 {
		seed = 0xDEF1
	}
	rng := core.NewRNG(seed)

	// Converged states are cached as raw amplitude vectors — in the
	// driver's own vector space, which every state it prepares shares —
	// for the overlap penalties.
	var found []DeflationState
	var foundAmps [][]complex128

	// One driver serves every evaluation across all states and restarts:
	// the same plan, simulator and optimizer loop as plain VQE. The penalty
	// has no adjoint gradient, so the loop differentiates numerically.
	drv, err := New(h, a, Options{Mode: Direct, Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	objective := func(_ context.Context, params []float64) (float64, error) {
		e := drv.Energy(params)
		for _, prev := range foundAmps {
			ov := linalg.VecDot(prev, drv.amplitudes())
			e += o.Beta * (real(ov)*real(ov) + imag(ov)*imag(ov))
		}
		return e, nil
	}

	for k := 0; k < o.NumStates; k++ {
		best := Result{Energy: math.Inf(1)}
		for r := 0; r < o.Restarts; r++ {
			x0 := make([]float64, a.NumParameters())
			if r > 0 || k > 0 {
				for i := range x0 {
					x0[i] = 0.3 * rng.NormFloat64()
				}
			}
			res, err := drv.lbfgs(ctx, objective, nil, x0, o.LBFGS, ResilienceOptions{})
			if err != nil {
				return nil, err
			}
			if res.Interrupted {
				return nil, ctx.Err()
			}
			if res.Energy < best.Energy {
				best = res
			}
		}
		// Report ⟨H⟩ alone; the minimized value still carries the penalty.
		found = append(found, DeflationState{Index: k, Energy: drv.Energy(best.Params), Params: best.Params})
		foundAmps = append(foundAmps, slices.Clone(drv.amplitudes()))
	}
	return found, nil
}
