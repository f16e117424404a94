package chem

import (
	"fmt"
	"math/bits"

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

// enumerateDeterminants lists all occupation bitmasks with ne electrons in
// nModes spin orbitals, in increasing numeric order (Gosper's hack).
func enumerateDeterminants(nModes, ne int) []uint64 {
	if ne < 0 || ne > nModes {
		return nil
	}
	if ne == 0 {
		return []uint64{0}
	}
	var out []uint64
	v := uint64(1)<<uint(ne) - 1
	limit := uint64(1) << uint(nModes)
	for v < limit {
		out = append(out, v)
		t := v | (v - 1)
		v = (t + 1) | (((^t & (t + 1)) - 1) >> uint(bits.TrailingZeros64(v)+1))
	}
	return out
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
	return sectorMatrix(plan, nModes, ne)
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
// (runspec, per job) passes that plan, so H is built once. An operator
// that maps a sector determinant outside the sector (one that does not
// conserve particle number) is rejected with core.ErrInvalidArgument.
func FCIofPlan(plan *pauli.Plan, nModes, ne int) (*FCIResult, error) {
	sp, dets, err := sectorMatrix(plan, nModes, ne)
	if err != nil {
		return nil, err
	}
	e, vec, err := lanczosOrDense(sp)
	if err != nil {
		return nil, err
	}
	return &FCIResult{Energy: e, Determinants: dets, Ground: vec, NumModes: nModes}, nil
}

// jwPlan compiles h's Jordan–Wigner image, rejecting a mode outside the
// nModes the sector has.
func jwPlan(h *fermion.Op, nModes int) (*pauli.Plan, error) {
	if h.MaxMode() >= nModes {
		return nil, fmt.Errorf("%w: operator touches mode %d of %d", core.ErrInvalidArgument, h.MaxMode(), nModes)
	}
	return pauli.NewPlan(h.JordanWigner()), nil
}

// sectorMatrix restricts a JW plan to the C(nModes, ne) determinants.
func sectorMatrix(plan *pauli.Plan, nModes, ne int) (*linalg.Sparse, []uint64, error) {
	if q := plan.MaxQubit(); q >= nModes {
		return nil, nil, fmt.Errorf("%w: operator touches qubit %d of %d", core.ErrInvalidArgument, q, nModes)
	}
	dets := enumerateDeterminants(nModes, ne)
	sub, err := plan.Restrict(pauli.SubspaceOf(dets))
	if err != nil {
		return nil, nil, err
	}
	return sub.Sparse(), dets, nil
}

// lanczosOrDense picks the solver by size: Jacobi for tiny sectors (more
// robust to degeneracy), Lanczos beyond.
func lanczosOrDense(sp *linalg.Sparse) (float64, []complex128, error) {
	if sp.N <= 64 {
		return linalg.GroundState(sp.Dense())
	}
	return linalg.LanczosGround(sp, linalg.LanczosOptions{MaxIter: 300, Tol: 1e-12})
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

// SectorDimension returns C(nModes, ne), the FCI basis size.
func SectorDimension(nModes, ne int) int {
	return len(enumerateDeterminants(nModes, ne))
}
