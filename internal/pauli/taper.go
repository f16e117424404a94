package pauli

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/core"
)

// This file implements Z₂-symmetry qubit tapering (Bravyi–Gambetta–
// Mezzacapo–Temme): find Z-type Pauli strings that commute with every term
// of a Hamiltonian, rotate each onto a single-qubit X with the Clifford
// U = (X_q + τ)/√2, substitute its ±1 sector eigenvalue, and drop the
// qubit. Molecular Hamiltonians always carry at least the two spin-parity
// symmetries, so tapering composes with downfolding to shrink the register
// further — H2 famously reduces from 4 qubits to 1.

// FindZSymmetries returns a basis (over GF(2)) of Z-type Pauli strings
// commuting with every term of op, excluding the identity. A Z-string
// Z^{g} commutes with a term (x,z) iff |g ∧ x| is even, so the basis is
// the nullspace of the terms' X-mask matrix.
func FindZSymmetries(op *Op, n int) []String {
	if n <= 0 || n > 63 {
		panic(core.ErrInvalidArgument)
	}
	// Collect distinct X-masks (rows of the constraint system).
	rowSet := map[uint64]bool{}
	for _, t := range op.stored() {
		if t.P.X != 0 {
			rowSet[t.P.X] = true
		}
	}
	rows := make([]uint64, 0, len(rowSet))
	for r := range rowSet {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] > rows[j] })

	// Gaussian elimination to row-echelon form; track pivot columns.
	pivots := map[int]uint64{} // column → row value
	for _, r := range rows {
		for r != 0 {
			col := bits.TrailingZeros64(r)
			if pv, ok := pivots[col]; ok {
				r ^= pv
				continue
			}
			pivots[col] = r
			break
		}
	}
	// Free columns give nullspace basis vectors.
	var out []String
	for col := 0; col < n; col++ {
		if _, isPivot := pivots[col]; isPivot {
			continue
		}
		// Back-substitute: g has 1 at the free column; for every pivot row
		// with a 1 in this column, set the pivot bit to restore r·g = 0.
		g := uint64(1) << uint(col)
		// Iterate pivot columns descending so later assignments don't
		// disturb earlier parity checks.
		cols := make([]int, 0, len(pivots))
		for c := range pivots {
			cols = append(cols, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(cols)))
		for _, c := range cols {
			if bits.OnesCount64(pivots[c]&g)%2 == 1 {
				g ^= 1 << uint(c)
			}
		}
		out = append(out, String{Z: g})
	}
	// Deterministic order.
	sort.Slice(out, func(i, j int) bool { return out[i].Z < out[j].Z })
	return out
}

// TaperResult describes a tapering transformation.
type TaperResult struct {
	// Tapered is the reduced Hamiltonian on n − k qubits.
	Tapered *Op
	// Symmetries are the Z-string generators used.
	Symmetries []String
	// TaperedQubits are the original qubit indices removed (one per
	// generator, matching Symmetries order).
	TaperedQubits []int
	// Sector holds the ±1 eigenvalue substituted for each generator.
	Sector []int
	// NumQubits is the reduced register width.
	NumQubits int
}

// conjugateByClifford maps P ↦ U·P·U for U = (X_q + τ)/√2 with τ a
// Z-string containing Z_q (so X_q and τ anticommute and U² = I).
// Writing XP = c_X·PX and τP = c_τ·Pτ with c ∈ {±1}:
//
//	U P U = ½(c_X + c_τ)·P + ½(c_X − c_τ)·P·X_q·τ
//
// i.e. P (both commute), −P (both anticommute), ±P·X_q·τ (mixed).
func conjugateByClifford(op *Op, tau String, q int) *Op {
	xq := String{X: 1 << uint(q)}
	xt, phXT := xq.Mul(tau)
	out := NewOp()
	for _, t := range op.stored() {
		p, c := t.P, t.Coeff
		commX := p.Commutes(xq)
		commT := p.Commutes(tau)
		switch {
		case commX && commT:
			out.Add(p, c)
		case !commX && !commT:
			out.Add(p, -c)
		default:
			r, ph := p.Mul(xt)
			coeff := c * ph * phXT
			if !commX {
				coeff = -coeff
			}
			out.Add(r, coeff)
		}
	}
	return out
}

// Taper removes one qubit per Z₂ symmetry generator. sector[i] ∈ {+1, −1}
// selects the symmetry eigenspace for generator i (same order as
// FindZSymmetries).
func Taper(op *Op, n int, syms []String, sector []int) (*TaperResult, error) {
	if len(sector) != len(syms) {
		return nil, core.ErrDimensionMismatch
	}
	for _, s := range sector {
		if s != 1 && s != -1 {
			return nil, fmt.Errorf("%w: sector values must be ±1", core.ErrInvalidArgument)
		}
	}
	// Canonicalize the generator set over GF(2): after elimination,
	// generator i is the only one acting on its pivot qubit, so each
	// Clifford U_i commutes with every other generator and the Cliffords
	// can be applied independently. Products of symmetries are
	// symmetries, so the group is unchanged.
	taus, qubits, err := CanonicalZGenerators(syms)
	if err != nil {
		return nil, err
	}

	work := op.Clone()
	for i, tau := range taus {
		work = conjugateByClifford(work, tau, qubits[i])
	}

	// Substitute sector eigenvalues for X on the pivot qubits and delete
	// those qubits.
	var removeMask uint64
	for _, q := range qubits {
		removeMask |= 1 << uint(q)
	}
	out := NewOp()
	for _, t := range work.stored() {
		p, c := t.P, t.Coeff
		// After the Cliffords, pivot qubits must carry only I or X.
		if p.Z&removeMask != 0 {
			return nil, fmt.Errorf("pauli: taper invariant violated: Z on pivot qubit in %s", p.Compact())
		}
		coeff := c
		for i, q := range qubits {
			if core.BitSet(p.X, q) && sector[i] == -1 {
				coeff = -coeff
			}
		}
		reduced := String{
			X: compressBits(p.X&^removeMask, removeMask),
			Z: compressBits(p.Z, removeMask),
		}
		out.Add(reduced, coeff)
	}
	return &TaperResult{
		Tapered:       out.Chop(core.CoeffEps),
		Symmetries:    taus,
		TaperedQubits: qubits,
		Sector:        append([]int(nil), sector...),
		NumQubits:     n - len(syms),
	}, nil
}

// CanonicalZGenerators reduces a Z-string generator set so that generator
// i is the only one acting on its pivot qubit — the form Taper uses
// internally. Sector eigenvalues passed to Taper refer to THESE
// generators.
func CanonicalZGenerators(syms []String) ([]String, []int, error) {
	taus := make([]String, len(syms))
	for i, tau := range syms {
		if tau.X != 0 || tau.Z == 0 {
			return nil, nil, fmt.Errorf("%w: generator %d is not a Z-string", core.ErrInvalidArgument, i)
		}
		taus[i] = tau
	}
	qubits := make([]int, len(taus))
	for i := range taus {
		q := bits.TrailingZeros64(taus[i].Z)
		qubits[i] = q
		for j := range taus {
			if j != i && core.BitSet(taus[j].Z, q) {
				taus[j].Z ^= taus[i].Z
			}
		}
	}
	for i := range taus {
		if taus[i].Z == 0 {
			return nil, nil, fmt.Errorf("%w: generators not independent", core.ErrInvalidArgument)
		}
	}
	return taus, qubits, nil
}

// SectorFromDeterminant returns the ±1 eigenvalues of Z-string generators
// on a computational basis determinant: (−1)^{|Z ∧ det|}.
func SectorFromDeterminant(syms []String, det uint64) []int {
	out := make([]int, len(syms))
	for i, s := range syms {
		if bits.OnesCount64(s.Z&det)%2 == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// compressBits deletes the bits selected by removeMask, shifting higher
// bits down.
func compressBits(x, removeMask uint64) uint64 {
	var out uint64
	shift := 0
	for q := 0; q < 64; q++ {
		bit := uint64(1) << uint(q)
		if removeMask&bit != 0 {
			continue
		}
		if x&bit != 0 {
			out |= 1 << uint(shift)
		}
		shift++
	}
	return out
}
