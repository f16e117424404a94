package pauli

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/linalg"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// This file restricts plans to an invariant subspace. An X-mask group sends
// basis state i to i⊕x alone, with coefficient a(i) = Σₜ cₜ·(−1)^{|i∧zₜ|},
// and for symmetry-respecting operators most of those cancel to zero: a
// number- and spin-conserving Hamiltonian and excitation pool reach
// C(6,4)² = 225 of 12-qubit water's 4 096 basis states from Hartree–Fock.
// The closure S of the reference under the nonzero transitions is mapped
// into itself by H and every exp(θ·A), so the ansatz state, H·φ and the
// brackets are |S|-long vectors; on S an observable is a sparse matrix and
// a generator group an explicit list of 2×2 blocks.

// subspaceZeroTol is the magnitude at or below which a transition
// coefficient is cancellation residue rather than a coupling. Measured on
// 12-qubit water: the smallest coefficient above it is 2.6e-6 and nothing
// lies between 1e-14 and that.
const subspaceZeroTol = 1e-12

// coupling evaluates a(i), summed as MatVec and PairBracket sum it, and
// reports whether the group moves basis state i at all.
func (g *xGroup) coupling(i uint64) (complex128, bool) {
	a := state.PairCoeff(i, g.zs, g.cs)
	return a, real(a)*real(a)+imag(a)*imag(a) > subspaceZeroTol*subspaceZeroTol
}

// Subspace is an ordered set of computational-basis states closed under
// the plans it was built from, with the position of each state in that
// order. Immutable after construction.
type Subspace struct {
	basis []uint64 // ascending
	pos   map[uint64]int32
}

// NewSubspace closes {ref} under the nonzero transitions of every X-mask
// group of plans (breadth first: the basis under construction is the
// queue). Operators that conserve nothing close it over the whole space.
func NewSubspace(ref uint64, plans ...*Plan) *Subspace {
	sp := &Subspace{basis: []uint64{ref}, pos: map[uint64]int32{ref: 0}}
	for head := 0; head < len(sp.basis); head++ {
		i := sp.basis[head]
		for _, pl := range plans {
			for gi := range pl.groups {
				g := &pl.groups[gi]
				j := i ^ g.x
				if _, seen := sp.pos[j]; seen {
					continue
				}
				if _, moves := g.coupling(i); !moves {
					continue
				}
				sp.pos[j] = 0
				sp.basis = append(sp.basis, j)
			}
		}
	}
	sort.Slice(sp.basis, func(a, b int) bool { return sp.basis[a] < sp.basis[b] })
	for p, i := range sp.basis {
		sp.pos[i] = int32(p)
	}
	return sp
}

// SubspaceOf is the subspace spanned by basis, which must be strictly
// ascending, in that order; it keeps the slice. Unlike NewSubspace it is
// not closed under anything: Restrict rejects a plan that leaves it.
func SubspaceOf(basis []uint64) *Subspace {
	sp := &Subspace{basis: basis, pos: make(map[uint64]int32, len(basis))}
	for p, i := range basis {
		sp.pos[i] = int32(p)
	}
	return sp
}

// Dim is the number of basis states.
func (sp *Subspace) Dim() int { return len(sp.basis) }

// Position returns where basis state i sits in a vector over the subspace.
func (sp *Subspace) Position(i uint64) (int, bool) {
	p, ok := sp.pos[i]
	return int(p), ok
}

// Scatter writes v, a vector over the subspace, into the full-space vector
// dst by basis state: dst[i] = v[Position(i)] inside, 0 outside.
func (sp *Subspace) Scatter(dst, v []complex128) {
	clear(dst)
	for p, i := range sp.basis {
		dst[i] = v[p]
	}
}

// leak is the error of restricting a plan that maps the subspace outside itself.
func leak(from, to uint64) error {
	return fmt.Errorf("%w: pauli: plan maps basis state %#b to %#b outside the subspace", core.ErrInvalidArgument, from, to)
}

// SubMatrix is an observable plan restricted to a subspace, in compressed
// sparse row form over positions.
type SubMatrix struct {
	rowStart []int32 // row r holds entries [rowStart[r], rowStart[r+1])
	col      []int32
	val      []complex128
}

// Restrict compiles the plan's matrix on sp. Row j lists its sources
// i = j⊕x in X-mask order — the order MatVec accumulates dst[j] in — so on
// a vector supported on sp the two agree entry for entry. A plan that maps
// a state of sp outside sp is rejected with core.ErrInvalidArgument.
func (pl *Plan) Restrict(sp *Subspace) (*SubMatrix, error) {
	m := &SubMatrix{rowStart: make([]int32, 1, len(sp.basis)+1)}
	for _, j := range sp.basis {
		for gi := range pl.groups {
			g := &pl.groups[gi]
			i := j ^ g.x
			if p, inside := sp.pos[i]; !inside {
				if _, moves := g.coupling(j); moves {
					return nil, leak(j, i)
				}
			} else if a, moves := g.coupling(i); moves {
				m.col = append(m.col, p)
				m.val = append(m.val, a)
			}
		}
		m.rowStart = append(m.rowStart, int32(len(m.col)))
	}
	return m, nil
}

// Sparse exports the matrix in linalg's CSR form, rows in stored order so
// that MulVecTo sums each row as MatVec does. The result shares the stored
// values; neither may be modified.
func (m *SubMatrix) Sparse() *linalg.Sparse {
	s := &linalg.Sparse{N: m.Dim(), RowPtr: make([]int, len(m.rowStart)), ColIdx: make([]int, len(m.col)), Vals: m.val}
	for r, e := range m.rowStart {
		s.RowPtr[r] = int(e)
	}
	for e, c := range m.col {
		s.ColIdx[e] = int(c)
	}
	return s
}

// Dim is the number of rows.
func (m *SubMatrix) Dim() int { return len(m.rowStart) - 1 }

// NNZ is the number of stored coefficients: the multiplies of one MatVec.
func (m *SubMatrix) NNZ() int { return len(m.val) }

// MatVec computes dst = H·src over the subspace, rows partitioned over pool
// from tuning.ReduceParallel rows up (nil runs inline). Each row is summed
// by one worker in stored order, so the result does not depend on the
// partition. dst and src have length Dim and must not alias.
func (m *SubMatrix) MatVec(dst, src []complex128, pool *state.Pool) {
	defer mPlanMatVec.Since(telemetry.Now())
	rows := uint64(m.Dim())
	if pool == nil || rows < tuning.ReduceParallel {
		m.matVecRows(dst, src, 0, rows)
		return
	}
	pool.Run(rows, pool.Workers(), func(_ int, lo, hi uint64) { m.matVecRows(dst, src, lo, hi) })
}

//vqesim:hotpath
func (m *SubMatrix) matVecRows(dst, src []complex128, lo, hi uint64) {
	for r := lo; r < hi; r++ {
		var acc complex128
		for e := m.rowStart[r]; e < m.rowStart[r+1]; e++ {
			acc += m.val[e] * src[m.col[e]]
		}
		dst[r] = acc
	}
}

// Pairs is a generator plan restricted to a subspace: each X-mask group as
// the explicit 2×2 blocks it acts through.
type Pairs struct {
	groups [][]state.Pair
}

// RestrictPairs compiles a NewGenerator plan on sp. Within a group the
// pairs keep the order PairBracket visits them in. A generator that maps a
// state of sp outside sp is rejected with core.ErrInvalidArgument.
func (pl *Plan) RestrictPairs(sp *Subspace) (*Pairs, error) {
	if !pl.generator {
		return nil, fmt.Errorf("%w: pauli: plan was not built by NewGenerator", core.ErrInvalidArgument)
	}
	out := &Pairs{groups: make([][]state.Pair, len(pl.groups))}
	for gi := range pl.groups {
		g := &pl.groups[gi]
		for p, i := range sp.basis {
			a, moves := g.coupling(i)
			if !moves {
				continue
			}
			q, inside := sp.pos[i^g.x]
			if !inside {
				return nil, leak(i, i^g.x)
			}
			if i>>uint(g.q)&1 == 0 { // one entry per pair, from its lower member
				out.groups[gi] = append(out.groups[gi], state.Pair{P: int32(p), Q: q, A: a})
			}
		}
	}
	return out, nil
}

// NumGroups is the number of pair sweeps one Exp costs.
func (ps *Pairs) NumGroups() int { return len(ps.groups) }

// Exp multiplies phi, and a non-nil lam, by exp(θ·A) in place, one pair
// sweep per X-mask group, and returns 2·Re⟨lam|A|phi⟩, the derivative of
// Re⟨lam|exp(θ·A)|phi⟩ in θ, which the rotation leaves unchanged: one step
// of the adjoint gradient's backward pass. At θ = 0 it is Plan.Bracket over
// the subspace: both vectors are read and neither written.
func (ps *Pairs) Exp(phi, lam []complex128, theta float64) float64 {
	total := 0.0
	for _, g := range ps.groups {
		total += state.RotatePairList(phi, lam, g, theta)
	}
	return total
}
