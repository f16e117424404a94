// Package pauli implements Pauli-string algebra and Pauli-sum operators
// (quantum observables): multiplication, commutators, qubit-wise-commuting
// grouping, measurement-basis rotation circuits, and expectation values —
// both the sampling estimator and the paper's direct deterministic
// calculation (§4.2).
//
// A Pauli string over up to 64 qubits is stored in the symplectic
// representation P(x,z) = i^{|x∧z|} · XˣZᶻ so that (x,z) bits map to
// I/X/Z/Y per qubit and every string is Hermitian.
package pauli

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/core"
)

// String is a single Pauli string (tensor product of I, X, Y, Z) on up to
// 64 qubits. Bit q of X/Z describes qubit q: (0,0)=I, (1,0)=X, (0,1)=Z,
// (1,1)=Y.
type String struct {
	X, Z uint64
}

// Identity is the empty Pauli string.
var Identity = String{}

// Single returns a one-qubit Pauli on the given qubit. p must be one of
// 'I','X','Y','Z'.
func Single(p byte, q int) (String, error) {
	if q < 0 || q > 63 {
		return String{}, core.QubitError(q, 64)
	}
	switch p {
	case 'I':
		return String{}, nil
	case 'X':
		return String{X: 1 << uint(q)}, nil
	case 'Y':
		return String{X: 1 << uint(q), Z: 1 << uint(q)}, nil
	case 'Z':
		return String{Z: 1 << uint(q)}, nil
	}
	return String{}, fmt.Errorf("%w: pauli letter %q", core.ErrInvalidArgument, p)
}

// Parse reads a label such as "XIZY": character i names the Pauli on
// qubit i (leftmost character = qubit 0).
func Parse(label string) (String, error) {
	var s String
	if len(label) > 64 {
		return s, fmt.Errorf("%w: label longer than 64", core.ErrInvalidArgument)
	}
	for i := 0; i < len(label); i++ {
		p, err := Single(label[i], i)
		if err != nil {
			return String{}, err
		}
		s.X |= p.X
		s.Z |= p.Z
	}
	return s, nil
}

// MustParse is Parse that panics on error (for literals in tests/tables).
func MustParse(label string) String {
	s, err := Parse(label)
	if err != nil {
		panic(fmt.Errorf("pauli: parsing %q: %w", label, err))
	}
	return s
}

// At returns the Pauli letter on qubit q.
func (s String) At(q int) byte {
	x := s.X>>uint(q)&1 == 1
	z := s.Z>>uint(q)&1 == 1
	switch {
	case x && z:
		return 'Y'
	case x:
		return 'X'
	case z:
		return 'Z'
	}
	return 'I'
}

// Label renders the string over n qubits ("XIZY" style).
func (s String) Label(n int) string {
	var b strings.Builder
	for q := 0; q < n; q++ {
		b.WriteByte(s.At(q))
	}
	return b.String()
}

// Compact renders only the non-identity letters with qubit indices,
// e.g. "X0 Z2".
func (s String) Compact() string {
	if s.IsIdentity() {
		return "I"
	}
	var parts []string
	m := s.X | s.Z
	for m != 0 {
		q := bits.TrailingZeros64(m)
		parts = append(parts, fmt.Sprintf("%c%d", s.At(q), q))
		m &= m - 1
	}
	return strings.Join(parts, " ")
}

// IsIdentity reports whether every qubit carries I.
func (s String) IsIdentity() bool { return s.X == 0 && s.Z == 0 }

// Weight returns the number of non-identity qubits.
func (s String) Weight() int { return bits.OnesCount64(s.X | s.Z) }

// Support returns the qubits the string acts on, ascending.
func (s String) Support() []int {
	var out []int
	m := s.X | s.Z
	for m != 0 {
		out = append(out, bits.TrailingZeros64(m))
		m &= m - 1
	}
	return out
}

// MaxQubit returns the highest qubit index touched, or -1 for identity.
func (s String) MaxQubit() int {
	m := s.X | s.Z
	if m == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(m)
}

// Commutes reports whether two strings commute globally. Strings commute
// iff they anticommute on an even number of qubits; the symplectic form
// ⟨a,b⟩ = |a.X∧b.Z| + |a.Z∧b.X| mod 2 decides it.
func (s String) Commutes(o String) bool {
	return (bits.OnesCount64(s.X&o.Z)+bits.OnesCount64(s.Z&o.X))%2 == 0
}

// QubitwiseCommutes reports whether the strings agree (or one is I) on
// every qubit — the grouping criterion for shared measurement bases.
func (s String) QubitwiseCommutes(o String) bool {
	both := (s.X | s.Z) & (o.X | o.Z)
	// On jointly supported qubits the letters must be equal.
	return (s.X^o.X)&both == 0 && (s.Z^o.Z)&both == 0
}

// phaseI returns i^k.
func phaseI(k int) complex128 { return powersOfI[k&3] }

// powersOfI is i^0 … i^3; k&3 is k mod 4 for negative k too.
var powersOfI = [4]complex128{1, 1i, -1, -1i}

// Mul returns the product s·o = phase · r with r canonical.
func (s String) Mul(o String) (r String, phase complex128) {
	r = String{X: s.X ^ o.X, Z: s.Z ^ o.Z}
	// s = i^{p1} X^{x1}Z^{z1}, o = i^{p2} X^{x2}Z^{z2};
	// Z^{z1}X^{x2} = (-1)^{|z1∧x2|} X^{x2}Z^{z1}.
	p1 := bits.OnesCount64(s.X & s.Z)
	p2 := bits.OnesCount64(o.X & o.Z)
	p3 := bits.OnesCount64(r.X & r.Z)
	k := p1 + p2 - p3
	sign := bits.OnesCount64(s.Z&o.X) % 2
	k += 2 * sign
	return r, phaseI(k)
}

// ApplyToBasis computes P|i⟩ = phase·|j⟩ for a computational basis state:
// j = i XOR X-mask, phase = i^{|x∧z|}·(−1)^{|i∧z|}.
func (s String) ApplyToBasis(i uint64) (j uint64, phase complex128) {
	j = i ^ s.X
	k := bits.OnesCount64(s.X & s.Z)
	k += 2 * (bits.OnesCount64(i&s.Z) % 2)
	return j, phaseI(k)
}

// Less imposes a deterministic total order (for canonical printing).
func (s String) Less(o String) bool {
	if s.X != o.X {
		return s.X < o.X
	}
	return s.Z < o.Z
}
