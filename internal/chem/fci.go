package chem

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
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

// ApplyLadderProduct applies an ordered ladder-operator product to a
// determinant (rightmost operator first), returning the resulting
// determinant and fermionic sign; ok is false if the product annihilates
// the state.
func ApplyLadderProduct(ops []fermion.Ladder, det uint64) (out uint64, sign float64, ok bool) {
	sign = 1
	for i := len(ops) - 1; i >= 0; i-- {
		l := ops[i]
		bit := uint64(1) << uint(l.Mode)
		below := det & (bit - 1)
		if l.Dagger {
			if det&bit != 0 {
				return 0, 0, false
			}
			if bits.OnesCount64(below)%2 == 1 {
				sign = -sign
			}
			det |= bit
		} else {
			if det&bit == 0 {
				return 0, 0, false
			}
			if bits.OnesCount64(below)%2 == 1 {
				sign = -sign
			}
			det &^= bit
		}
	}
	return det, sign, true
}

// SectorMatrix builds the Hamiltonian matrix of a fermionic operator
// restricted to the ne-electron sector of nModes spin orbitals.
func SectorMatrix(h *fermion.Op, nModes, ne int) (*linalg.Sparse, []uint64, error) {
	if h.MaxMode() >= nModes {
		return nil, nil, fmt.Errorf("%w: operator touches mode %d of %d", core.ErrInvalidArgument, h.MaxMode(), nModes)
	}
	dets := enumerateDeterminants(nModes, ne)
	index := make(map[uint64]int, len(dets))
	for i, d := range dets {
		index[d] = i
	}
	b := linalg.NewSparseBuilder(len(dets))
	terms := h.Terms()
	// Many terms hit the same (row, col) — 263 655 hits for 37 935 nonzeros
	// on 12-qubit water — so each column is summed in a dense scratch first
	// and the builder sees one entry per nonzero, not one per hit: its
	// triplet list would otherwise be the largest allocation of a solve.
	scratch := make([]complex128, len(dets))
	touched := make([]bool, len(dets))
	var rows []int
	for col, det := range dets {
		rows = rows[:0]
		for _, t := range terms {
			out, sign, ok := ApplyLadderProduct(t.Ops, det)
			if !ok {
				continue
			}
			row, in := index[out]
			if !in {
				continue // particle-number-violating component: outside sector
			}
			if !touched[row] {
				touched[row] = true
				rows = append(rows, row)
			}
			scratch[row] += t.Coeff * complex(sign, 0)
		}
		for _, row := range rows {
			b.Add(row, col, scratch[row])
			scratch[row], touched[row] = 0, false
		}
	}
	return b.Build(), dets, nil
}

// FCI computes the exact ground state of the molecule's electronic
// Hamiltonian in its particle-number sector via Lanczos on the
// determinant basis. This is the reference energy for every accuracy
// claim in the reproduction (paper Figure 5's ΔE axis).
func FCI(m *MolecularData) (*FCIResult, error) {
	h := FermionicHamiltonian(m)
	nModes := m.NumSpinOrbitals()
	sp, dets, err := SectorMatrix(h, nModes, m.NumElectrons)
	if err != nil {
		return nil, err
	}
	e, vec, err := lanczosOrDense(sp)
	if err != nil {
		return nil, err
	}
	return &FCIResult{Energy: e, Determinants: dets, Ground: vec, NumModes: nModes}, nil
}

// FCIofOp is FCI for an arbitrary fermionic operator and sector.
func FCIofOp(h *fermion.Op, nModes, ne int) (*FCIResult, error) {
	sp, dets, err := SectorMatrix(h, nModes, ne)
	if err != nil {
		return nil, err
	}
	e, vec, err := lanczosOrDense(sp)
	if err != nil {
		return nil, err
	}
	return &FCIResult{Energy: e, Determinants: dets, Ground: vec, NumModes: nModes}, nil
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
