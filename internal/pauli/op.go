package pauli

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/linalg"
)

// Term is one weighted Pauli string of an observable.
type Term struct {
	Coeff complex128
	P     String
}

// Op is a Pauli-sum operator (observable / Hamiltonian): a linear
// combination of Pauli strings. The zero value is the zero operator and is
// ready to use.
//
// The strings sit in a flat slice in first-addition order, found by an
// open-addressed table keyed on the string (linear probing): an Add is one
// hash and a probe or two, with no map. A string whose sum falls to
// core.CoeffEps keeps its place with coefficient 0, which marks it
// removed: sums that cancel and start again (a Jordan–Wigner transform's,
// thousands of times) cost nothing more than an add.
type Op struct {
	terms []Term
	// index holds 1 + the position in terms of each string, 0 in an empty
	// slot; its length is a power of two, at least twice len(terms), or 0
	// before the first Add.
	index []int32
	shift uint8 // 64 − log2(len(index)): home takes the hash's top bits
	live  int   // the terms with a nonzero coefficient: the stored ones
}

// NewOp returns an empty operator.
func NewOp() *Op { return &Op{} }

// FromTerms builds an operator from a term list (duplicates are summed).
func FromTerms(ts []Term) *Op {
	op := NewOp()
	for _, t := range ts {
		op.Add(t.P, t.Coeff)
	}
	return op
}

// Scalar returns c·I as an operator.
func Scalar(c complex128) *Op {
	op := NewOp()
	op.Add(Identity, c)
	return op
}

// home is p's first slot in an index of 2^(64−shift) slots.
func home(p String, shift uint8) int {
	return int((p.X*0x9e3779b97f4a7c15 ^ p.Z) * 0xc2b2ae3d27d4eb4f >> shift)
}

// slot returns the index slot holding p, or the empty slot where it
// would go.
func (op *Op) slot(p String) int {
	mask := len(op.index) - 1
	h := home(p, op.shift)
	for op.index[h] != 0 && op.terms[op.index[h]-1].P != p {
		h = (h + 1) & mask
	}
	return h
}

// grow rebuilds index with room for at least one string more.
func (op *Op) grow() {
	size := 8
	for size < 2*(len(op.terms)+1) {
		size *= 2
	}
	op.index = make([]int32, size)
	op.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for e, t := range op.terms {
		op.index[op.slot(t.P)] = int32(e + 1)
	}
}

// Add accumulates coeff·P into the operator: the stored coefficient (+0
// when absent) plus coeff, removed when its modulus is at most
// core.CoeffEps.
func (op *Op) Add(p String, coeff complex128) *Op {
	if 2*(len(op.terms)+1) > len(op.index) {
		op.grow()
	}
	h := op.slot(p)
	if op.index[h] == 0 {
		if v := 0 + coeff; !core.Negligible(v) {
			op.terms = append(op.terms, Term{Coeff: v, P: p})
			op.index[h] = int32(len(op.terms))
			op.live++
		}
		return op
	}
	t := &op.terms[op.index[h]-1]
	was := t.Coeff != 0
	switch v := t.Coeff + coeff; {
	case !core.Negligible(v):
		if !was {
			op.live++
		}
		t.Coeff = v
	case was:
		op.live--
		t.Coeff = 0
	}
	return op
}

// stored returns the stored terms, in first-addition order. The slice may
// be op's own and must not be modified.
func (op *Op) stored() []Term {
	if op.live == len(op.terms) {
		return op.terms
	}
	out := make([]Term, 0, op.live)
	for _, t := range op.terms {
		if t.Coeff != 0 {
			out = append(out, t)
		}
	}
	return out
}

// AddOp accumulates c·o into op.
func (op *Op) AddOp(o *Op, c complex128) *Op {
	for _, t := range o.stored() {
		op.Add(t.P, c*t.Coeff)
	}
	return op
}

// Coeff returns the coefficient of string p (zero if absent).
func (op *Op) Coeff(p String) complex128 {
	if len(op.index) == 0 {
		return 0
	}
	if e := op.index[op.slot(p)]; e != 0 {
		return op.terms[e-1].Coeff
	}
	return 0
}

// NumTerms returns the number of stored Pauli strings — the quantity in
// the paper's Figure 1b.
func (op *Op) NumTerms() int { return op.live }

// Terms returns the term list sorted canonically.
func (op *Op) Terms() []Term {
	out := make([]Term, 0, op.live)
	for _, t := range op.terms {
		if t.Coeff != 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.Less(out[j].P) })
	return out
}

// Clone deep-copies the operator.
func (op *Op) Clone() *Op {
	return &Op{terms: slices.Clone(op.terms), index: slices.Clone(op.index), shift: op.shift, live: op.live}
}

// Scale multiplies every coefficient by c in place and returns op. A
// coefficient scaled to exactly 0 is removed.
func (op *Op) Scale(c complex128) *Op {
	if c == 0 {
		*op = Op{}
		return op
	}
	for e := range op.terms {
		if op.terms[e].Coeff == 0 {
			continue
		}
		if op.terms[e].Coeff *= c; op.terms[e].Coeff == 0 {
			op.live--
		}
	}
	return op
}

// Mul returns the operator product op·o (term-by-term with phase
// tracking). Cost is O(|op|·|o| + sort). Distinct factor pairs can
// produce the same product string, so accumulation must run in canonical
// term order — map iteration would make the summation order (and the
// low-order bits of colliding coefficients) vary between runs, breaking
// the engine's equal-spec ⇒ equal-result guarantee.
func (op *Op) Mul(o *Op) *Op {
	out := NewOp()
	for _, t1 := range op.Terms() {
		for _, t2 := range o.Terms() {
			r, ph := t1.P.Mul(t2.P)
			out.Add(r, t1.Coeff*t2.Coeff*ph)
		}
	}
	return out
}

// Commutator returns [op, o] = op·o − o·op.
func (op *Op) Commutator(o *Op) *Op {
	out := op.Mul(o)
	out.AddOp(o.Mul(op), -1)
	return out
}

// MaxQubit returns the highest qubit index used, or -1 for a scalar.
func (op *Op) MaxQubit() int {
	mx := -1
	for _, t := range op.stored() {
		if q := t.P.MaxQubit(); q > mx {
			mx = q
		}
	}
	return mx
}

// IsHermitian reports whether the operator is Hermitian — every Pauli
// string is Hermitian, so this holds iff all coefficients are real.
func (op *Op) IsHermitian(tol float64) bool {
	for _, t := range op.terms {
		if math.Abs(imag(t.Coeff)) > tol {
			return false
		}
	}
	return true
}

// HermitianPart returns (op + op†)/2 — for Pauli sums that simply drops
// the imaginary part of each coefficient.
func (op *Op) HermitianPart() *Op {
	out := NewOp()
	for _, t := range op.terms {
		if r := real(t.Coeff); math.Abs(r) > core.CoeffEps {
			out.Add(t.P, complex(r, 0))
		}
	}
	return out
}

// Chop removes terms with |coeff| ≤ tol in place and returns op.
func (op *Op) Chop(tol float64) *Op {
	for e, t := range op.terms {
		if t.Coeff != 0 && cmplx.Abs(t.Coeff) <= tol {
			op.terms[e].Coeff = 0
			op.live--
		}
	}
	return op
}

// OneNorm returns Σ|coeff| (identity included).
func (op *Op) OneNorm() float64 {
	s := 0.0
	for _, t := range op.stored() {
		s += cmplx.Abs(t.Coeff)
	}
	return s
}

// Equal reports coefficient-wise equality within tol.
func (op *Op) Equal(o *Op, tol float64) bool {
	for _, t := range op.stored() {
		if !core.AlmostEqualC(t.Coeff, o.Coeff(t.P), tol) {
			return false
		}
	}
	for _, t := range o.stored() {
		if op.Coeff(t.P) == 0 && cmplx.Abs(t.Coeff) > tol {
			return false
		}
	}
	return true
}

// String renders the operator compactly, canonical term order.
func (op *Op) String() string {
	ts := op.Terms()
	if len(ts) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, t := range ts {
		if i > 0 {
			b.WriteString(" + ")
		}
		if imag(t.Coeff) == 0 {
			fmt.Fprintf(&b, "%g", real(t.Coeff))
		} else {
			fmt.Fprintf(&b, "(%g%+gi)", real(t.Coeff), imag(t.Coeff))
		}
		b.WriteString("·")
		b.WriteString(t.P.Compact())
	}
	return b.String()
}

// ToSparse materializes the operator as a CSR matrix on n qubits, used to
// cross-check simulated expectation values against exact linear algebra.
func (op *Op) ToSparse(n int) *linalg.Sparse {
	dim := core.Dim(n)
	b := linalg.NewSparseBuilder(dim)
	for _, t := range op.stored() {
		if t.P.MaxQubit() >= n {
			panic(core.QubitError(t.P.MaxQubit(), n))
		}
		for i := uint64(0); i < uint64(dim); i++ {
			j, ph := t.P.ApplyToBasis(i)
			// Column i contributes to row j: H|i⟩ = Σ ph·|j⟩.
			b.Add(int(j), int(i), t.Coeff*ph)
		}
	}
	return b.Build()
}

// ToDense materializes the operator densely (small n only).
func (op *Op) ToDense(n int) *linalg.Matrix {
	return op.ToSparse(n).Dense()
}

// MatVec applies the operator to a state vector without materializing a
// matrix: O(terms · 2ⁿ). src and dst must have length 2ⁿ.
// Different strings can route amplitude into the same dst element, so the
// term loop runs in canonical order for run-to-run bit stability.
func (op *Op) MatVec(dst, src []complex128) {
	for i := range dst {
		dst[i] = 0
	}
	for _, t := range op.Terms() {
		for i := uint64(0); i < uint64(len(src)); i++ {
			if src[i] == 0 {
				continue
			}
			j, ph := t.P.ApplyToBasis(i)
			dst[j] += t.Coeff * ph * src[i]
		}
	}
}

// OpMatVec adapts an Op to linalg.MatVecer for Lanczos.
type OpMatVec struct {
	Op *Op
	N  int
}

// Dim implements linalg.MatVecer.
func (m OpMatVec) Dim() int { return core.Dim(m.N) }

// Apply implements linalg.MatVecer.
func (m OpMatVec) Apply(dst, src []complex128) { m.Op.MatVec(dst, src) }
