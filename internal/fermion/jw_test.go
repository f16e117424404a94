package fermion_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/pauli"
)

// jordanWignerReference is the ladder-by-ladder transform: one two-term
// pauli.Op per ladder operator, multiplied into the running product with
// pauli.Op.Mul, each product summed into the result in canonical term
// order. JordanWigner must reproduce it bit for bit.
func jordanWignerReference(op *fermion.Op) *pauli.Op {
	out := pauli.NewOp()
	for _, t := range op.Terms() {
		acc := pauli.Scalar(t.Coeff)
		for _, l := range t.Ops {
			acc = acc.Mul(ladderReference(l))
		}
		out.AddOp(acc, 1)
	}
	return out.Chop(core.CoeffEps)
}

// ladderReference is a_p = Z_{<p}·(X_p + iY_p)/2 and a_p† = Z_{<p}·(X_p − iY_p)/2.
func ladderReference(l fermion.Ladder) *pauli.Op {
	zmask := uint64(1)<<uint(l.Mode) - 1
	x := pauli.String{X: 1 << uint(l.Mode), Z: zmask}
	y := pauli.String{X: 1 << uint(l.Mode), Z: zmask | 1<<uint(l.Mode)}
	op := pauli.NewOp().Add(x, 0.5)
	if l.Dagger {
		return op.Add(y, -0.5i)
	}
	return op.Add(y, 0.5i)
}

// randomLadderOp draws nTerms products of 1–6 ladder operators on nModes
// modes with complex coefficients: few modes make repeated modes and
// non-normal-ordered products the common case, and the coefficient scale
// puts some of the 2^k strings of a term at or below core.CoeffEps.
func randomLadderOp(rng *core.RNG, nModes, nTerms int, scale float64) *fermion.Op {
	op := fermion.NewOp()
	for k := 0; k < nTerms; k++ {
		ops := make([]fermion.Ladder, 1+rng.Intn(6))
		for i := range ops {
			ops[i] = fermion.Ladder{Mode: rng.Intn(nModes), Dagger: rng.Intn(2) == 0}
		}
		op.AddTerm(fermion.Term{Coeff: complex(scale*rng.NormFloat64(), scale*rng.NormFloat64()), Ops: ops})
	}
	return op
}

// TestJordanWignerBitEqualReference: every coefficient of JordanWigner is
// the reference's to the bit, on the pinned molecular models, a
// downfolded operator, and seeded random ladder products.
func TestJordanWignerBitEqualReference(t *testing.T) {
	models := map[string]*fermion.Op{
		"h2":          chem.FermionicHamiltonian(chem.H2()),
		"water12":     chem.FermionicHamiltonian(chem.WaterLike()),
		"hubbard4":    chem.FermionicHamiltonian(chem.Hubbard(4, 1, 4, 4)),
		"hubbard6":    chem.FermionicHamiltonian(chem.Hubbard(6, 1, 8, 6)),
		"synthetic54": chem.FermionicHamiltonian(chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 5, NumElectrons: 4, Seed: 3})),
	}
	if !testing.Short() {
		models["water16"] = chem.FermionicHamiltonian(chem.WaterLikeScaled(8))
	}
	down, err := chem.Downfold(chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 3, Decay: 1.2, Correlation: 0.25}),
		chem.DownfoldOptions{ActiveOrbitals: 2, Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	models["downfold"] = down.Fermionic
	rng := core.NewRNG(0x3A9)
	for _, scale := range []float64{1, 1e-11, 3e-12} {
		models[fmt.Sprintf("random×%g", scale)] = randomLadderOp(rng, 4, 200, scale)
	}
	models["edge"] = fermion.NewOp().
		AddTerm(fermion.Term{Coeff: 1, Ops: []fermion.Ladder{{Mode: 0, Dagger: false}, {Mode: 0, Dagger: false}}}).
		AddTerm(fermion.Term{Coeff: 0.5 - 2i, Ops: []fermion.Ladder{{Mode: 1, Dagger: false}, {Mode: 1, Dagger: true}, {Mode: 1, Dagger: false}}}).
		AddTerm(fermion.Term{Coeff: 3e-12, Ops: []fermion.Ladder{{Mode: 2, Dagger: true}, {Mode: 0, Dagger: false}}}).
		AddTerm(fermion.Term{Coeff: -0.25i, Ops: []fermion.Ladder{{Mode: 3, Dagger: true}}}).
		AddTerm(fermion.Term{Coeff: 2})
	for name, op := range models {
		got, want := op.JordanWigner(), jordanWignerReference(op)
		if got.NumTerms() != want.NumTerms() {
			t.Errorf("%s: %d terms, reference %d", name, got.NumTerms(), want.NumTerms())
			continue
		}
		for _, w := range want.Terms() {
			g := got.Coeff(w.P)
			if math.Float64bits(real(g)) != math.Float64bits(real(w.Coeff)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w.Coeff)) {
				t.Errorf("%s: %s = %v, reference %v", name, w.P.Compact(), g, w.Coeff)
				break
			}
		}
	}
}

// TestJordanWignerAllocationBound is an exact count gate on mapping a
// prebuilt water-12 operator: no allocation per term or ladder operator.
func TestJordanWignerAllocationBound(t *testing.T) {
	h := chem.FermionicHamiltonian(chem.WaterLike())
	if a := testing.AllocsPerRun(2, func() { h.JordanWigner() }); a > 1000 {
		t.Errorf("JordanWigner(water-12): %.0f allocations, bound 1 000", a)
	}
}
