package pauli

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/state"
)

// generatorRealTol bounds the real part a generator coefficient may
// carry: Pauli strings are Hermitian, so A = Σ cₖ·Pₖ is anti-Hermitian
// iff every cₖ is imaginary. It is the tolerance the ansatz package has
// always held its Jordan–Wigner images to.
const generatorRealTol = 1e-10

// NewGenerator compiles an anti-Hermitian operator A = Σ i·cₖ·Pₖ whose
// strings pairwise commute and each flip at least one qubit — one
// fermionic excitation T − T† under any encoding, or a single i·P — into a
// plan that can also be restricted to a subspace as pair rotations
// (RestrictPairs) and bracketed (Bracket). Commuting strings make exp(θ·A)
// the product of the per-X-mask-group exponentials in any order, and each
// of those is one pair sweep. Anything else is rejected with
// core.ErrInvalidArgument: a non-commuting sum would carry Trotter error,
// and a diagonal string (no X or Y) is a phase, not an excitation.
func NewGenerator(terms []Term) (*Plan, error) {
	clean := make([]Term, len(terms))
	for i, t := range terms {
		if math.Abs(real(t.Coeff)) > generatorRealTol {
			return nil, fmt.Errorf("%w: pauli: generator term %s has coefficient %v, not imaginary",
				core.ErrInvalidArgument, t.P.Compact(), t.Coeff)
		}
		if t.P.X == 0 {
			return nil, fmt.Errorf("%w: pauli: generator term %s is diagonal: a phase, not an excitation",
				core.ErrInvalidArgument, t.P.Compact())
		}
		for _, u := range terms[:i] {
			if !t.P.Commutes(u.P) {
				return nil, fmt.Errorf("%w: pauli: generator terms %s and %s do not commute",
					core.ErrInvalidArgument, u.P.Compact(), t.P.Compact())
			}
		}
		// The kernel takes a(i⊕x) = −conj(a(i)) on trust; that holds
		// exactly only for exactly imaginary coefficients.
		clean[i] = Term{Coeff: complex(0, imag(t.Coeff)), P: t.P}
	}
	pl := NewPlanFromTerms(clean)
	pl.generator = true
	return pl, nil
}

// Bracket returns 2·Re⟨lam|A|s⟩ without touching either vector: with
// lam = H|s⟩ it is ⟨s|[H, A]|s⟩, the Adapt-VQE pool gradient.
func (pl *Plan) Bracket(s *state.State, lam []complex128) float64 {
	if !pl.generator {
		panic(fmt.Errorf("%w: pauli: plan was not built by NewGenerator", core.ErrInvalidArgument))
	}
	if pl.maxQubit >= s.NumQubits() {
		panic(core.QubitError(pl.maxQubit, s.NumQubits()))
	}
	total := 0.0
	for gi := range pl.groups {
		g := &pl.groups[gi]
		total += s.PairBracket(g.x, g.zs, g.cs, lam)
	}
	return total
}
