package vqe

import (
	"fmt"

	"repro/internal/ansatz"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/kernel/tuning"
	"repro/internal/pauli"
	"repro/internal/state"
)

// subspace is the invariant block of Hilbert space an exponential ansatz
// lives in — the closure of its reference determinant under H and every
// generator the run may apply — with H and the generators restricted to
// it: φ, H·φ and the adjoint brackets are block-long vectors. Compiled once
// per solve; Adapt hands each inner driver a view (with).
type subspace struct {
	space *pauli.Subspace
	h     *pauli.SubMatrix
	ref   int            // position of the reference determinant
	ops   []*pauli.Pairs // the generators this holder applies, in order
	pool  *state.Pool    // row-partitions H·φ on large blocks; nil = inline
}

// compileSubspace builds the block for reference circuit ref, observable
// plan h and generators ops. ref must be X gates alone — one
// basis state — or the ansatz is rejected with core.ErrInvalidArgument.
// workers and injected are the caller's Workers and Pool options.
func compileSubspace(ref *circuit.Circuit, h *pauli.Plan, ops []ansatz.Excitation, workers int, injected *state.Pool) (*subspace, error) {
	var refState uint64
	for _, g := range ref.Gates {
		if g.Kind != gate.X {
			return nil, fmt.Errorf("%w: vqe: reference circuit has a %v gate; an exponential ansatz starts from a basis state (X gates alone)", core.ErrInvalidArgument, g.Kind)
		}
		refState ^= 1 << uint(g.Qubits[0])
	}
	plans := make([]*pauli.Plan, 0, len(ops)+1)
	for _, ex := range ops {
		plans = append(plans, ex.Plan())
	}
	space := pauli.NewSubspace(refState, append(plans, h)...)
	hs, err := h.Restrict(space)
	if err != nil {
		return nil, err
	}
	sp := &subspace{space: space, h: hs, ops: make([]*pauli.Pairs, len(ops)), pool: injected}
	sp.ref, _ = space.Position(refState)
	for k := range ops {
		if sp.ops[k], err = plans[k].RestrictPairs(space); err != nil {
			return nil, err
		}
	}
	// state.New's rule for starting a pool, on the block's size.
	if sp.pool == nil && space.Dim() >= tuning.ReduceParallel && state.ResolveWorkers(workers) > 1 {
		sp.pool = state.NewPool(workers)
	}
	mSubspaceCompiles.Inc()
	mSubspaceDim.Set(int64(space.Dim()))
	mSubspaceNNZ.Set(int64(hs.NNZ()))
	return sp, nil
}

// with is the same block applying, in order, the generators at the given
// positions of sp.ops: Adapt's block holds the whole pool, and this is its
// view for the operators selected so far.
func (sp *subspace) with(selected []int) *subspace {
	view := *sp
	view.ops = make([]*pauli.Pairs, len(selected))
	for k, at := range selected {
		view.ops[k] = sp.ops[at]
	}
	return &view
}

// prepare leaves U(θ)|ref⟩ in phi — the reference determinant, then one
// pair sweep per generator group — and returns the sweeps it took.
func (sp *subspace) prepare(phi []complex128, params []float64) (sweeps int) {
	clear(phi)
	phi[sp.ref] = 1
	for k, op := range sp.ops {
		op.Exp(phi, nil, params[k])
		sweeps += op.NumGroups()
	}
	return sweeps
}

// poolGradients is PoolGradients over the block: hPhi receives H·phi and
// entry k is 2·Re⟨H·phi|A_k·phi⟩ for the holder's k-th operator.
func (sp *subspace) poolGradients(phi, hPhi []complex128) []float64 {
	sp.h.MatVec(hPhi, phi, sp.pool)
	out := make([]float64, len(sp.ops))
	for k, op := range sp.ops {
		out[k] = op.Exp(phi, hPhi, 0) // θ = 0: the bracket alone
	}
	return out
}
