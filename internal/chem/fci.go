package chem

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/pauli"
)

// FCIResult holds the exact diagonalization output for one particle-number
// sector.
type FCIResult struct {
	Energy       float64
	Determinants []uint64     // sector basis (occupation bitmasks), sorted
	Ground       []complex128 // ground eigenvector over Determinants
	NumModes     int
}

// SectorMatrix builds the Hamiltonian matrix of a fermionic operator
// restricted to the ne-electron sector of nModes spin orbitals: h's
// Jordan–Wigner plan restricted to the C(nModes, ne) determinants (see
// FCIofPlan).
func SectorMatrix(h *fermion.Op, nModes, ne int) (*linalg.Sparse, []uint64, error) {
	plan, err := jwPlan(h, nModes)
	if err != nil {
		return nil, nil, err
	}
	sector, sub, err := plan.RestrictSector(nModes, ne)
	if err != nil {
		return nil, nil, err
	}
	return sub.Sparse(), sector.Basis(), nil
}

// FCI computes the exact ground state of the molecule's electronic
// Hamiltonian in its particle-number sector via Lanczos on the
// determinant basis. This is the reference energy for every accuracy
// claim in the reproduction (paper Figure 5's ΔE axis).
func FCI(m *MolecularData) (*FCIResult, error) {
	return FCIofPlan(pauli.NewPlan(QubitHamiltonian(m)), m.NumSpinOrbitals(), m.NumElectrons)
}

// FCIofOp is FCI for an arbitrary fermionic operator and sector.
func FCIofOp(h *fermion.Op, nModes, ne int) (*FCIResult, error) {
	plan, err := jwPlan(h, nModes)
	if err != nil {
		return nil, err
	}
	return FCIofPlan(plan, nModes, ne)
}

// FCIofPlan is the one sector routine every FCI runs: the ground state of
// a Jordan–Wigner qubit operator's plan restricted to the ne-electron
// sector of nModes spin orbitals, whose C(nModes, ne) determinants are
// basis indices under JW. A caller that already compiled the observable
// (runspec, per job) passes that plan, so H is built once, and the plan
// keeps the restriction (pauli.Plan.RestrictSector), so the ansatz block
// the same job runs in is read off it rather than restricted again. An
// operator that maps a sector determinant outside the sector (one that
// does not conserve particle number) is rejected with
// core.ErrInvalidArgument.
func FCIofPlan(plan *pauli.Plan, nModes, ne int) (*FCIResult, error) {
	if q := plan.MaxQubit(); q >= nModes {
		return nil, fmt.Errorf("%w: operator touches qubit %d of %d", core.ErrInvalidArgument, q, nModes)
	}
	sector, sub, err := plan.RestrictSector(nModes, ne)
	if err != nil {
		return nil, err
	}
	e, vec, err := lanczosOrDense(sub)
	if err != nil {
		return nil, err
	}
	return &FCIResult{Energy: e, Determinants: slices.Clone(sector.Basis()), Ground: vec, NumModes: nModes}, nil
}

// jwPlan compiles h's Jordan–Wigner image, rejecting a mode outside the
// nModes the sector has.
func jwPlan(h *fermion.Op, nModes int) (*pauli.Plan, error) {
	if h.MaxMode() >= nModes {
		return nil, fmt.Errorf("%w: operator touches mode %d of %d", core.ErrInvalidArgument, h.MaxMode(), nModes)
	}
	return pauli.NewPlan(h.JordanWigner()), nil
}

// sectorOperator is a sector matrix either solver can read: a
// pauli.SubMatrix, or its linalg.Sparse export.
type sectorOperator interface {
	linalg.MatVecer
	Dense() *linalg.Matrix
}

// lanczosOrDense picks the solver by size: Jacobi for tiny sectors (more
// robust to degeneracy), Lanczos beyond.
func lanczosOrDense(op sectorOperator) (float64, []complex128, error) {
	if op.Dim() <= 64 {
		return linalg.GroundState(op.Dense())
	}
	return linalg.LanczosGround(op, linalg.LanczosOptions{MaxIter: 300, Tol: 1e-12})
}

// FullVector scatters the sector eigenvector into the full 2ⁿ qubit space
// (JW mapping: determinant bitmask = basis index), for fidelity
// comparisons against simulated states.
func (r *FCIResult) FullVector() []complex128 {
	out := make([]complex128, core.Dim(r.NumModes))
	for i, d := range r.Determinants {
		out[d] = r.Ground[i]
	}
	return out
}
