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
// strings pairwise commute — one fermionic excitation T − T† under any
// encoding, or a single i·P — into a plan that can also be exponentiated
// (Exp, Bracket). Commuting strings make exp(θ·A) the product of the
// per-X-mask-group exponentials in any order, and each of those is one
// pair sweep (state.RotatePairs). Anything else is rejected with
// core.ErrInvalidArgument: the product would carry Trotter error.
func NewGenerator(terms []Term) (*Plan, error) {
	clean := make([]Term, len(terms))
	for i, t := range terms {
		if math.Abs(real(t.Coeff)) > generatorRealTol {
			return nil, fmt.Errorf("%w: pauli: generator term %s has coefficient %v, not imaginary",
				core.ErrInvalidArgument, t.P.Compact(), t.Coeff)
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

// Exp applies exp(θ·A) to s in place, one pair sweep per X-mask group. A
// non-nil lam (length 2ⁿ, any norm) is carried through the same sweeps —
// both vectors end up multiplied by exp(θ·A) — and the return value is
// 2·Re⟨lam|A|s⟩, the derivative of Re⟨lam|exp(θ·A)|s⟩ in θ, which the
// rotation leaves unchanged; this is one step of the adjoint gradient's
// backward pass. With a nil lam the return value is 0.
func (pl *Plan) Exp(s *state.State, lam []complex128, theta float64) float64 {
	pl.checkGenerator(s)
	total := 0.0
	for gi := range pl.groups {
		g := &pl.groups[gi]
		total += s.RotatePairs(g.x, g.zs, g.cs, theta, lam)
	}
	return total
}

// Bracket returns 2·Re⟨lam|A|s⟩ without touching either vector: with
// lam = H|s⟩ it is ⟨s|[H, A]|s⟩, the Adapt-VQE pool gradient.
func (pl *Plan) Bracket(s *state.State, lam []complex128) float64 {
	pl.checkGenerator(s)
	total := 0.0
	for gi := range pl.groups {
		g := &pl.groups[gi]
		total += s.PairBracket(g.x, g.zs, g.cs, lam)
	}
	return total
}

func (pl *Plan) checkGenerator(s *state.State) {
	if !pl.generator {
		panic(fmt.Errorf("%w: pauli: plan was not built by NewGenerator", core.ErrInvalidArgument))
	}
	if pl.maxQubit >= s.NumQubits() {
		panic(core.QubitError(pl.maxQubit, s.NumQubits()))
	}
}
