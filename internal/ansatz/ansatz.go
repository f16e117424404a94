// Package ansatz builds parameterized quantum circuits for VQE: the UCCSD
// ansatz whose gate count drives the paper's Figures 1a/3/4, a
// hardware-efficient ansatz, and the operator pools used by Adapt-VQE
// (Figure 5). Excitation operators are generated fermionically,
// Jordan–Wigner mapped, and compiled to basis-rotation + CNOT-staircase +
// RZ Pauli exponentials.
package ansatz

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/pauli"
)

// Ansatz is a parameterized circuit family U(θ).
type Ansatz interface {
	NumQubits() int
	NumParameters() int
	// Circuit materializes U(θ) for a parameter vector (len ==
	// NumParameters()).
	Circuit(params []float64) *circuit.Circuit
}

// AppendPauliExp appends gates implementing exp(−i·θ/2·P) to the circuit:
// basis rotation into Z, CNOT staircase onto the highest support qubit,
// RZ(θ), unwind. An identity string contributes only a global phase and
// appends nothing.
func AppendPauliExp(c *circuit.Circuit, theta float64, p pauli.String) {
	sup := p.Support()
	if len(sup) == 0 {
		return
	}
	// Enter the Z basis: X → H, Y → S†H  (so that P → Z…Z).
	for _, q := range sup {
		switch p.At(q) {
		case 'X':
			c.H(q)
		case 'Y':
			c.Sdg(q).H(q)
		}
	}
	last := sup[len(sup)-1]
	for i := 0; i+1 < len(sup); i++ {
		c.CX(sup[i], sup[i+1])
	}
	c.RZ(theta, last)
	for i := len(sup) - 2; i >= 0; i-- {
		c.CX(sup[i], sup[i+1])
	}
	for _, q := range sup {
		switch p.At(q) {
		case 'X':
			c.H(q)
		case 'Y':
			c.H(q).S(q)
		}
	}
}

// Excitation is one anti-Hermitian generator A = T − T† of the cluster
// expansion, carried in three synchronized forms.
type Excitation struct {
	Label string
	// Fermionic is T − T† in ladder form.
	Fermionic *fermion.Op
	// Paulis is the Jordan–Wigner image: Σ i·c_k·P_k with real c_k; the
	// imaginary coefficients make the operator anti-Hermitian.
	Paulis []pauli.Term
	// plan is Paulis compiled for pauli.Plan.Exp, once, by the pool and
	// ansatz constructors; copies of the Excitation share it.
	plan *pauli.Plan
}

// compileGenerator vets and compiles a generator. The constructors of this
// package only produce commuting, anti-Hermitian term lists, so a
// rejection is a bug in them.
func compileGenerator(label string, terms []pauli.Term) *pauli.Plan {
	pl, err := pauli.NewGenerator(terms)
	if err != nil {
		panic(fmt.Errorf("ansatz: generator %s: %w", label, err))
	}
	return pl
}

// Plan returns A compiled for in-place exponentiation (pauli.Plan.Exp):
// exp(θ·A) as one amplitude sweep per X-mask group (one, for a fermionic
// excitation under Jordan–Wigner) instead of the AppendExp gate ladder.
// An Excitation assembled by hand rather than by this package's
// constructors is compiled on each call.
func (e Excitation) Plan() *pauli.Plan {
	if e.plan != nil {
		return e.plan
	}
	return compileGenerator(e.Label, e.Paulis)
}

// AppendExp appends exp(θ·A) to the circuit. The Pauli terms arising from
// a single fermionic excitation mutually commute, so the product of
// exponentials is exact (no Trotter error).
func (e Excitation) AppendExp(c *circuit.Circuit, theta float64) {
	for _, t := range e.Paulis {
		// term = i·ck·P with ck = imag(coeff): exp(θ·i·ck·P) =
		// exp(−i·(−2θck)/2·P).
		ck := imag(t.Coeff)
		AppendPauliExp(c, -2*theta*ck, t.P)
	}
}

// Generator returns A as a Pauli operator (anti-Hermitian).
func (e Excitation) Generator() *pauli.Op {
	return pauli.FromTerms(e.Paulis)
}

// newExcitation finalizes T into A = T − T† with both representations,
// mapped through enc (nil = Jordan–Wigner).
func newExcitation(label string, t *fermion.Op, enc *fermion.Encoding) (Excitation, bool) {
	a := t.Clone()
	a.Add(t.Adjoint(), -1)
	var jw *pauli.Op
	if enc == nil {
		jw = a.JordanWigner()
	} else {
		var err error
		jw, err = enc.Transform(a)
		if err != nil {
			panic(fmt.Errorf("ansatz: fermionic encoding failed: %w", err))
		}
	}
	terms := jw.Terms()
	if len(terms) == 0 {
		return Excitation{}, false
	}
	return Excitation{Label: label, Fermionic: a, Paulis: terms, plan: compileGenerator(label, terms)}, true
}

// Singles lists spin-preserving single excitations i→a (occupied →
// virtual spin orbitals of equal spin) for ne electrons in n spin
// orbitals.
func Singles(n, ne int) []Excitation { return SinglesWithEncoding(n, ne, nil) }

// SinglesWithEncoding is Singles under an arbitrary fermion-to-qubit
// encoding (nil = Jordan–Wigner).
func SinglesWithEncoding(n, ne int, enc *fermion.Encoding) []Excitation {
	var out []Excitation
	for i := 0; i < ne; i++ {
		for a := ne; a < n; a++ {
			if i%2 != a%2 {
				continue
			}
			t := fermion.OneBody(a, i)
			if ex, ok := newExcitation(fmt.Sprintf("s(%d->%d)", i, a), t, enc); ok {
				out = append(out, ex)
			}
		}
	}
	return out
}

// Doubles lists spin-preserving double excitations ij→ab (i<j occupied,
// a<b virtual, conserving total Sz with matching spin multisets).
func Doubles(n, ne int) []Excitation { return DoublesWithEncoding(n, ne, nil) }

// DoublesWithEncoding is Doubles under an arbitrary encoding (nil = JW).
func DoublesWithEncoding(n, ne int, enc *fermion.Encoding) []Excitation {
	var out []Excitation
	for i := 0; i < ne; i++ {
		for j := i + 1; j < ne; j++ {
			for a := ne; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if !spinMatch(i, j, a, b) {
						continue
					}
					t := fermion.NewOp()
					t.AddTerm(fermion.Term{Coeff: 1, Ops: []fermion.Ladder{
						{Mode: a, Dagger: true}, {Mode: b, Dagger: true},
						{Mode: j, Dagger: false}, {Mode: i, Dagger: false},
					}})
					if ex, ok := newExcitation(fmt.Sprintf("d(%d,%d->%d,%d)", i, j, a, b), t, enc); ok {
						out = append(out, ex)
					}
				}
			}
		}
	}
	return out
}

// spinMatch reports whether the spin multiset {i,j} equals {a,b}.
func spinMatch(i, j, a, b int) bool {
	si, sj, sa, sb := i%2, j%2, a%2, b%2
	return si+sj == sa+sb
}

// UCCSD is the unitary coupled-cluster singles-and-doubles ansatz: the
// Hartree–Fock reference determinant followed by one parameterized
// exponential per excitation.
type UCCSD struct {
	n           int
	ne          int
	refMask     uint64 // qubits flipped to prepare the encoded reference
	Excitations []Excitation
}

// NewUCCSD builds the ansatz for ne electrons in n spin orbitals (= n
// qubits under JW).
func NewUCCSD(n, ne int) (*UCCSD, error) { return NewUCCSDWithEncoding(n, ne, nil) }

// NewUCCSDWithEncoding builds UCCSD with generators and reference state
// mapped through an arbitrary fermion-to-qubit encoding (nil = JW). The
// reference circuit prepares the encoded image of the Hartree–Fock
// occupation, so the ansatz is consistent with observables produced by
// the same encoding.
func NewUCCSDWithEncoding(n, ne int, enc *fermion.Encoding) (*UCCSD, error) {
	if ne < 0 || ne > n {
		return nil, fmt.Errorf("%w: %d electrons in %d spin orbitals", core.ErrInvalidArgument, ne, n)
	}
	if enc != nil && enc.NumModes() != n {
		return nil, core.ErrDimensionMismatch
	}
	refOcc := uint64(1)<<uint(ne) - 1
	refMask := refOcc
	if enc != nil {
		refMask = enc.EncodeOccupation(refOcc)
	}
	ex := append(SinglesWithEncoding(n, ne, enc), DoublesWithEncoding(n, ne, enc)...)
	return &UCCSD{n: n, ne: ne, refMask: refMask, Excitations: ex}, nil
}

// NumQubits implements Ansatz.
func (u *UCCSD) NumQubits() int { return u.n }

// NumParameters implements Ansatz.
func (u *UCCSD) NumParameters() int { return len(u.Excitations) }

// ReferenceCircuit prepares the (encoded) Hartree–Fock determinant.
func (u *UCCSD) ReferenceCircuit() *circuit.Circuit {
	c := circuit.New(u.n)
	mask := u.refMask
	if mask == 0 && u.ne > 0 {
		mask = uint64(1)<<uint(u.ne) - 1
	}
	for q := 0; q < u.n; q++ {
		if mask>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	return c
}

// Circuit implements Ansatz.
func (u *UCCSD) Circuit(params []float64) *circuit.Circuit {
	if len(params) != u.NumParameters() {
		panic(core.ErrDimensionMismatch)
	}
	c := u.ReferenceCircuit()
	for k, ex := range u.Excitations {
		ex.AppendExp(c, params[k])
	}
	return c
}

// HardwareEfficient is the RY–RZ + CX-ladder ansatz of Kandala et al.
// (paper §6.1 related work), used as a shallow-circuit baseline.
type HardwareEfficient struct {
	n      int
	layers int
	// PrepareReference optionally prepends X gates on the first ne qubits.
	Reference int
}

// NewHardwareEfficient builds a HEA with the given entangling depth.
func NewHardwareEfficient(n, layers, reference int) (*HardwareEfficient, error) {
	if n < 1 || layers < 1 || reference < 0 || reference > n {
		return nil, core.ErrInvalidArgument
	}
	return &HardwareEfficient{n: n, layers: layers, Reference: reference}, nil
}

// NumQubits implements Ansatz.
func (h *HardwareEfficient) NumQubits() int { return h.n }

// NumParameters implements Ansatz: 2 rotations per qubit per layer plus a
// final rotation layer.
func (h *HardwareEfficient) NumParameters() int { return 2 * h.n * (h.layers + 1) }

// Circuit implements Ansatz.
func (h *HardwareEfficient) Circuit(params []float64) *circuit.Circuit {
	if len(params) != h.NumParameters() {
		panic(core.ErrDimensionMismatch)
	}
	c := circuit.New(h.n)
	for q := 0; q < h.Reference; q++ {
		c.X(q)
	}
	k := 0
	rot := func() {
		for q := 0; q < h.n; q++ {
			c.RY(params[k], q)
			k++
			c.RZ(params[k], q)
			k++
		}
	}
	for l := 0; l < h.layers; l++ {
		rot()
		for q := 0; q+1 < h.n; q++ {
			c.CX(q, q+1)
		}
	}
	rot()
	return c
}

// Pool is an Adapt-VQE operator pool.
type Pool struct {
	n, ne int
	Ops   []Excitation
}

// NewPool returns the singles+doubles pool for Adapt-VQE (Grimsley et al.,
// paper refs [4,16,17]).
func NewPool(n, ne int) (*Pool, error) {
	if ne < 0 || ne > n {
		return nil, core.ErrInvalidArgument
	}
	return &Pool{n: n, ne: ne, Ops: append(Singles(n, ne), Doubles(n, ne)...)}, nil
}

// Size returns the pool cardinality.
func (p *Pool) Size() int { return len(p.Ops) }

// AdaptAnsatz is the growing ansatz assembled by Adapt-VQE: a reference
// determinant plus an ordered list of selected pool operators.
type AdaptAnsatz struct {
	n        int
	ne       int
	Selected []Excitation
}

// NewAdaptAnsatz starts with an empty operator list.
func NewAdaptAnsatz(n, ne int) *AdaptAnsatz { return &AdaptAnsatz{n: n, ne: ne} }

// NumQubits implements Ansatz.
func (a *AdaptAnsatz) NumQubits() int { return a.n }

// NumParameters implements Ansatz.
func (a *AdaptAnsatz) NumParameters() int { return len(a.Selected) }

// Grow appends one operator layer.
func (a *AdaptAnsatz) Grow(ex Excitation) { a.Selected = append(a.Selected, ex) }

// Circuit implements Ansatz.
func (a *AdaptAnsatz) Circuit(params []float64) *circuit.Circuit {
	if len(params) != len(a.Selected) {
		panic(core.ErrDimensionMismatch)
	}
	c := circuit.New(a.n)
	for q := 0; q < a.ne; q++ {
		c.X(q)
	}
	for k, ex := range a.Selected {
		ex.AppendExp(c, params[k])
	}
	return c
}

// Reference returns the UCCSD reference-determinant circuit (alias of
// ReferenceCircuit, satisfying the exponential-ansatz interface used by
// adjoint differentiation).
func (u *UCCSD) Reference() *circuit.Circuit { return u.ReferenceCircuit() }

// Operators returns the ordered excitation generators.
func (u *UCCSD) Operators() []Excitation { return u.Excitations }

// Reference returns the Adapt reference-determinant circuit.
func (a *AdaptAnsatz) Reference() *circuit.Circuit {
	c := circuit.New(a.n)
	for q := 0; q < a.ne; q++ {
		c.X(q)
	}
	return c
}

// Operators returns the selected pool operators in application order.
func (a *AdaptAnsatz) Operators() []Excitation { return a.Selected }

// NewQubitPool returns the qubit-ADAPT-VQE pool (Tang et al., paper ref
// [16]): instead of fermionic excitations, each pool operator is a single
// anti-Hermitian Pauli generator i·P drawn from the strings appearing in
// the UCCSD generators, deduplicated. Individual Pauli exponentials give
// much shallower circuit layers at the cost of more Adapt iterations and
// lost particle-number guarantees.
func NewQubitPool(n, ne int) (*Pool, error) {
	if ne < 0 || ne > n {
		return nil, core.ErrInvalidArgument
	}
	seen := map[pauli.String]bool{}
	var ops []Excitation
	for _, ex := range append(Singles(n, ne), Doubles(n, ne)...) {
		for _, t := range ex.Paulis {
			if seen[t.P] {
				continue
			}
			seen[t.P] = true
			label := "q[" + t.P.Compact() + "]"
			terms := []pauli.Term{{Coeff: 1i, P: t.P}}
			ops = append(ops, Excitation{Label: label, Paulis: terms, plan: compileGenerator(label, terms)})
		}
	}
	return &Pool{n: n, ne: ne, Ops: ops}, nil
}

// GeneralizedSingles lists ALL spin-preserving single rotations p→q
// (p < q, equal spin), not just occupied→virtual — the "G" in UCCGSD.
func GeneralizedSingles(n int) []Excitation {
	var out []Excitation
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			if p%2 != q%2 {
				continue
			}
			t := fermion.OneBody(q, p)
			if ex, ok := newExcitation(fmt.Sprintf("gs(%d->%d)", p, q), t, nil); ok {
				out = append(out, ex)
			}
		}
	}
	return out
}

// GeneralizedDoubles lists all spin-preserving pair rotations
// (p<q) → (r<s) over arbitrary orbital pairs with (p,q) ≠ (r,s) and
// canonical ordering to avoid duplicating a rotation and its inverse.
func GeneralizedDoubles(n int) []Excitation {
	var out []Excitation
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			for r := 0; r < n; r++ {
				for s := r + 1; s < n; s++ {
					// Canonical: source pair strictly below target pair.
					if r*n+s <= p*n+q {
						continue
					}
					if !spinMatch(p, q, r, s) {
						continue
					}
					t := fermion.NewOp()
					t.AddTerm(fermion.Term{Coeff: 1, Ops: []fermion.Ladder{
						{Mode: r, Dagger: true}, {Mode: s, Dagger: true},
						{Mode: q, Dagger: false}, {Mode: p, Dagger: false},
					}})
					if ex, ok := newExcitation(fmt.Sprintf("gd(%d,%d->%d,%d)", p, q, r, s), t, nil); ok {
						out = append(out, ex)
					}
				}
			}
		}
	}
	return out
}

// NewUCCGSD builds the generalized UCC singles-doubles ansatz: the same
// reference determinant with every generalized rotation as a parameter.
// Strictly more expressive than UCCSD at a steep parameter-count cost.
func NewUCCGSD(n, ne int) (*UCCSD, error) {
	if ne < 0 || ne > n {
		return nil, fmt.Errorf("%w: %d electrons in %d spin orbitals", core.ErrInvalidArgument, ne, n)
	}
	ex := append(GeneralizedSingles(n), GeneralizedDoubles(n)...)
	refMask := uint64(1)<<uint(ne) - 1
	return &UCCSD{n: n, ne: ne, refMask: refMask, Excitations: ex}, nil
}
