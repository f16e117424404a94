package vqe

import (
	"fmt"
	"math/bits"

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
//
// When H and every generator keep the reference's particle-number sector
// (Jordan–Wigner), the block is cut out of H's sector restriction, which
// the plan keeps: a job whose FCI reference read the same plan restricts
// H once. Otherwise (another encoding, or an operator that breaks the
// symmetry) the block is the closure pauli.NewSubspace finds, and H and the
// generators are restricted to it.
func compileSubspace(ref *circuit.Circuit, h *pauli.Plan, ops []ansatz.Excitation, workers int, injected *state.Pool) (*subspace, error) {
	var refState uint64
	for _, g := range ref.Gates {
		if g.Kind != gate.X {
			return nil, fmt.Errorf("%w: vqe: reference circuit has a %v gate; an exponential ansatz starts from a basis state (X gates alone)", core.ErrInvalidArgument, g.Kind)
		}
		refState ^= 1 << uint(g.Qubits[0])
	}
	plans := make([]*pauli.Plan, len(ops))
	for k, ex := range ops {
		plans[k] = ex.Plan()
	}
	sp := &subspace{pool: injected}
	var ok bool
	if sp.space, sp.h, sp.ops, ok = sectorBlock(refState, ref.NumQubits, h, plans); !ok {
		sp.space = pauli.NewSubspace(refState, append(plans, h)...)
		var err error
		if sp.h, err = h.Restrict(sp.space); err != nil {
			return nil, err
		}
		sp.ops = make([]*pauli.Pairs, len(ops))
		for k := range ops {
			if sp.ops[k], err = plans[k].RestrictPairs(sp.space); err != nil {
				return nil, err
			}
		}
	}
	sp.ref, _ = sp.space.Position(refState)
	// state.New's rule for starting a pool, on the block's size.
	if sp.pool == nil && sp.space.Dim() >= tuning.ReduceParallel && state.ResolveWorkers(workers) > 1 {
		sp.pool = state.NewPool(workers)
	}
	mSubspaceCompiles.Inc()
	mSubspaceDim.Set(int64(sp.space.Dim()))
	mSubspaceNNZ.Set(int64(sp.h.NNZ()))
	return sp, nil
}

// sectorBlock is the block read off the n-qubit sector of refState's
// particle number, and false when H or a generator leaves that sector.
func sectorBlock(refState uint64, n int, h *pauli.Plan, plans []*pauli.Plan) (*pauli.Subspace, *pauli.SubMatrix, []*pauli.Pairs, bool) {
	sector, hs, err := h.RestrictSector(n, bits.OnesCount64(refState))
	if err != nil {
		return nil, nil, nil, false
	}
	gens := make([]*pauli.Pairs, len(plans))
	for k, pl := range plans {
		if gens[k], err = pl.RestrictPairs(sector); err != nil {
			return nil, nil, nil, false
		}
	}
	space, block, pairs := sector.Block(refState, hs, gens)
	return space, block, pairs, true
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
