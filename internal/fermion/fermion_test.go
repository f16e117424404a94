package fermion

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/pauli"
)

// jwDense materializes a fermionic operator as a dense matrix on n qubits
// via Jordan–Wigner.
func jwDense(op *Op, n int) *linalg.Matrix {
	return op.JordanWigner().ToDense(n)
}

func TestJWSingleModeMatrices(t *testing.T) {
	// On one mode: a = [[0,1],[0,0]] in the (|0⟩,|1⟩) basis.
	a := NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, false}}})
	m := jwDense(a, 1)
	want := linalg.MatrixFrom(2, 2, []complex128{0, 1, 0, 0})
	if !m.Equal(want, 1e-12) {
		t.Errorf("a matrix:\n%v", m)
	}
	ad := NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, true}}})
	md := jwDense(ad, 1)
	if !md.Equal(want.Adjoint(), 1e-12) {
		t.Errorf("a† matrix:\n%v", md)
	}
}

func TestJWAnticommutationRelations(t *testing.T) {
	n := 3
	ladder := func(p int, dag bool) *Op {
		return NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{p, dag}}})
	}
	anti := func(A, B *Op) *linalg.Matrix {
		da, db := jwDense(A, n), jwDense(B, n)
		return da.Mul(db).Add(db.Mul(da))
	}
	id := linalg.Identity(1 << n)
	zero := linalg.NewMatrix(1<<n, 1<<n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			// {a_p, a_q†} = δ_pq
			got := anti(ladder(p, false), ladder(q, true))
			want := zero
			if p == q {
				want = id
			}
			if !got.Equal(want, 1e-12) {
				t.Errorf("{a_%d, a_%d†} wrong", p, q)
			}
			// {a_p, a_q} = 0
			if !anti(ladder(p, false), ladder(q, false)).Equal(zero, 1e-12) {
				t.Errorf("{a_%d, a_%d} != 0", p, q)
			}
		}
	}
}

func TestNumberOperatorSpectrum(t *testing.T) {
	// n_0 + n_1 on 2 modes has eigenvalues equal to set-bit counts.
	op := NewOp().Add(Number(0), 1).Add(Number(1), 1)
	m := jwDense(op, 2)
	for i := 0; i < 4; i++ {
		popcount := float64((i & 1) + (i >> 1 & 1))
		if math.Abs(real(m.At(i, i))-popcount) > 1e-12 {
			t.Errorf("diag %d = %v, want %v", i, m.At(i, i), popcount)
		}
	}
}

func TestNormalOrderPreservesOperator(t *testing.T) {
	// Normal ordering is algebraically neutral: JW matrices must match.
	cases := []*Op{
		NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, false}, {0, true}}}),
		NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, false}, {1, true}, {2, false}}}),
		NewOp().AddTerm(Term{Coeff: 0.5 - 0.25i, Ops: []Ladder{{2, false}, {0, false}, {1, true}, {2, true}}}),
		TwoBody(0, 1, 1, 0),
		NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{1, false}, {0, false}, {0, true}, {1, true}}}),
	}
	for i, op := range cases {
		no := op.NormalOrder()
		if !jwDense(op, 3).Equal(jwDense(no, 3), 1e-10) {
			t.Errorf("case %d: normal ordering changed the operator\nbefore: %v\nafter: %v", i, op, no)
		}
		// Verify result is actually normal-ordered.
		for _, term := range no.Terms() {
			if firstDisorder(term.Ops) >= 0 {
				t.Errorf("case %d: term %v not normal ordered", i, term)
			}
		}
	}
}

func TestNormalOrderCanonicalExample(t *testing.T) {
	// a_0 a_0† = 1 − a_0† a_0.
	op := NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, false}, {0, true}}})
	no := op.NormalOrder()
	if no.NumTerms() != 2 {
		t.Fatalf("terms: %v", no)
	}
	var sawScalar, sawNumber bool
	for _, term := range no.Terms() {
		switch len(term.Ops) {
		case 0:
			sawScalar = term.Coeff == 1
		case 2:
			sawNumber = term.Coeff == -1 && term.Ops[0].Dagger && !term.Ops[1].Dagger
		}
	}
	if !sawScalar || !sawNumber {
		t.Errorf("wrong normal form: %v", no)
	}
}

func TestNilpotency(t *testing.T) {
	// a_0† a_0† = 0.
	op := NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, true}, {0, true}}})
	if no := op.NormalOrder(); no.NumTerms() != 0 {
		t.Errorf("(a†)² should vanish: %v", no)
	}
}

func TestAdjointMatchesMatrixAdjoint(t *testing.T) {
	op := NewOp().
		AddTerm(Term{Coeff: 0.3 + 0.4i, Ops: []Ladder{{1, true}, {0, false}}}).
		AddTerm(Term{Coeff: -0.9, Ops: []Ladder{{2, true}, {1, true}, {0, false}, {2, false}}})
	if !jwDense(op.Adjoint(), 3).Equal(jwDense(op, 3).Adjoint(), 1e-12) {
		t.Error("adjoint wrong")
	}
}

func TestAdjointInvolution(t *testing.T) {
	op := NewOp().AddTerm(Term{Coeff: 1i, Ops: []Ladder{{0, true}, {1, false}}})
	if !jwDense(op.Adjoint().Adjoint(), 2).Equal(jwDense(op, 2), 1e-12) {
		t.Error("(op†)† != op")
	}
}

func TestMulMatchesDense(t *testing.T) {
	a := OneBody(0, 1)
	b := OneBody(1, 0)
	got := jwDense(a.Mul(b), 2)
	want := jwDense(a, 2).Mul(jwDense(b, 2))
	if !got.Equal(want, 1e-12) {
		t.Error("fermionic product wrong under JW")
	}
}

func TestCommutatorMatchesDense(t *testing.T) {
	a := OneBody(0, 1).Add(OneBody(1, 0), 1)
	b := Number(0)
	got := jwDense(a.Commutator(b), 2)
	da, db := jwDense(a, 2), jwDense(b, 2)
	want := da.Mul(db).Sub(db.Mul(da))
	if !got.Equal(want, 1e-12) {
		t.Error("commutator wrong under JW")
	}
}

func TestHoppingTermJW(t *testing.T) {
	// a_0† a_1 + a_1† a_0 --JW--> (X0X1 + Y0Y1)/2.
	op := OneBody(0, 1).Add(OneBody(1, 0), 1)
	q := op.JordanWigner()
	want := pauli.NewOp().
		Add(pauli.MustParse("XX"), 0.5).
		Add(pauli.MustParse("YY"), 0.5)
	if !q.Equal(want, 1e-12) {
		t.Errorf("hopping JW: %v", q)
	}
}

func TestNumberOperatorJW(t *testing.T) {
	// n_p --JW--> (I − Z_p)/2.
	q := Number(1).JordanWigner()
	want := pauli.NewOp().
		Add(pauli.Identity, 0.5).
		Add(pauli.MustParse("IZ"), -0.5)
	if !q.Equal(want, 1e-12) {
		t.Errorf("number JW: %v", q)
	}
}

func TestJWStringsIncludeParity(t *testing.T) {
	// a_2 acting past modes 0,1 must carry Z0 Z1 strings.
	q := NewOp().AddTerm(Term{Coeff: 1, Ops: []Ladder{{2, false}}}).JordanWigner()
	for _, term := range q.Terms() {
		if term.P.At(0) != 'Z' || term.P.At(1) != 'Z' {
			t.Errorf("missing parity string: %s", term.P.Label(3))
		}
	}
}

func TestScaleAndScalar(t *testing.T) {
	op := Scalar(2)
	op.Scale(3)
	if len(op.Terms()) != 1 || op.Terms()[0].Coeff != 6 {
		t.Error("scalar/scale wrong")
	}
	op.Scale(0)
	if op.NumTerms() != 0 {
		t.Error("scale(0)")
	}
}

func TestMaxMode(t *testing.T) {
	if TwoBody(0, 3, 2, 1).MaxMode() != 3 {
		t.Error("max mode")
	}
	if Scalar(1).MaxMode() != -1 {
		t.Error("scalar max mode")
	}
}

func TestAddTermMerging(t *testing.T) {
	op := NewOp()
	op.AddTerm(Term{Coeff: 1, Ops: []Ladder{{0, true}}})
	op.AddTerm(Term{Coeff: -1, Ops: []Ladder{{0, true}}})
	if op.NumTerms() != 0 {
		t.Error("terms did not cancel")
	}
}

func TestTermStringAndOpString(t *testing.T) {
	op := OneBody(1, 0)
	if op.String() == "0" || len(op.String()) == 0 {
		t.Error("string rendering")
	}
	if Scalar(0).String() != "0" {
		t.Error("zero op string")
	}
}

func TestNormalOrderPreservesJWProperty(t *testing.T) {
	// Property: for random ladder products, normal ordering never changes
	// the operator (checked through the JW matrix on 3 modes).
	f := func(modes [4]uint8, daggers uint8, cr, ci int8) bool {
		ops := make([]Ladder, 0, 4)
		for i, m := range modes {
			ops = append(ops, Ladder{Mode: int(m % 3), Dagger: daggers>>uint(i)&1 == 1})
		}
		coeff := complex(float64(cr)/16, float64(ci)/16)
		if coeff == 0 {
			coeff = 1
		}
		op := NewOp().AddTerm(Term{Coeff: coeff, Ops: ops})
		return jwDense(op, 3).Equal(jwDense(op.NormalOrder(), 3), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAdjointPropertyRandom(t *testing.T) {
	// (c·T)† has conjugated coefficient and reversed/flipped ladder ops —
	// verified against matrix adjoints for random products.
	f := func(modes [3]uint8, daggers uint8, cr, ci int8) bool {
		ops := make([]Ladder, 0, 3)
		for i, m := range modes {
			ops = append(ops, Ladder{Mode: int(m % 3), Dagger: daggers>>uint(i)&1 == 1})
		}
		op := NewOp().AddTerm(Term{Coeff: complex(float64(cr)/8, float64(ci)/8) + 1, Ops: ops})
		return jwDense(op.Adjoint(), 3).Equal(jwDense(op, 3).Adjoint(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTermsInTextOrder: Terms lists products in ascending order of their
// texts ("3^ 0 " for a_3† a_0), whatever the keys are, because every sum
// over Terms (Jordan–Wigner, Mul, NormalOrder) is pinned to the bit in
// that order. The products mix one- and two-digit modes, shared
// prefixes and lengths 0 to 4.
func TestTermsInTextOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	op := NewOp()
	for i := 0; i < 400; i++ {
		ops := make([]Ladder, rng.Intn(5))
		for k := range ops {
			ops[k] = Ladder{Mode: []int{0, 1, 2, 10, 11, 19, 21, 100, 127}[rng.Intn(9)], Dagger: rng.Intn(2) == 1}
		}
		op.AddTerm(Term{Coeff: complex(rng.Float64()+0.5, 0), Ops: ops})
	}
	text := func(ops []Ladder) string {
		var b strings.Builder
		for _, l := range ops {
			b.WriteString(l.String() + " ")
		}
		return b.String()
	}
	terms := op.Terms()
	if len(terms) < 200 {
		t.Fatalf("only %d distinct products", len(terms))
	}
	for i := 1; i < len(terms); i++ {
		if a, b := text(terms[i-1].Ops), text(terms[i].Ops); a >= b {
			t.Fatalf("Terms()[%d] = %q precedes %q", i-1, a, b)
		}
	}
}

// TestAddTermRejectsUnkeyableProducts: a product a term key cannot hold —
// more than 15 ladders, or a mode outside 0..127 — panics with
// core.ErrInvalidArgument rather than colliding with another product.
func TestAddTermRejectsUnkeyableProducts(t *testing.T) {
	long := make([]Ladder, 16)
	for i := range long {
		long[i] = Ladder{Mode: i}
	}
	for name, ops := range map[string][]Ladder{"16 ladders": long, "mode 128": {{Mode: 128, Dagger: true}}} {
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, core.ErrInvalidArgument) {
					t.Errorf("%s: recovered %v, want ErrInvalidArgument", name, err)
				}
			}()
			NewOp().AddTerm(Term{Coeff: 1, Ops: ops})
		}()
	}
	if got := NewOp().AddTerm(Term{Coeff: 1, Ops: long[:15]}).NumTerms(); got != 1 {
		t.Errorf("a 15-ladder product: %d terms, want 1", got)
	}
}
