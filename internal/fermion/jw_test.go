package fermion_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/pauli"
)

// jordanWignerMap is the transform as it was built on a Go map: each term,
// in canonical order, expanded ladder by ladder with String.Mul and merged
// within the term as refTerms.add merges, then every string added into a
// map[String]complex128 by the same rule. JordanWigner must reproduce it
// bit for bit.
func jordanWignerMap(op *fermion.Op) map[pauli.String]complex128 {
	out := map[pauli.String]complex128{}
	var acc, next refTerms
	for _, t := range op.Terms() {
		acc = acc[:0].add(pauli.Identity, t.Coeff)
		for _, l := range t.Ops {
			zmask := uint64(1)<<uint(l.Mode) - 1
			x := pauli.String{X: 1 << uint(l.Mode), Z: zmask}
			y := pauli.String{X: 1 << uint(l.Mode), Z: zmask | 1<<uint(l.Mode)}
			cy := complex128(0.5i)
			if l.Dagger {
				cy = -0.5i
			}
			next = next[:0]
			for _, e := range acc {
				r, ph := e.P.Mul(x)
				next = next.add(r, e.Coeff*0.5*ph)
				r, ph = e.P.Mul(y)
				next = next.add(r, e.Coeff*cy*ph)
			}
			acc, next = next, acc
		}
		for _, e := range acc {
			if v := out[e.P] + e.Coeff; cmplx.Abs(v) <= core.CoeffEps {
				delete(out, e.P)
			} else {
				out[e.P] = v
			}
		}
	}
	return out
}

// refTerms is one term's strings during the reference expansion: a new
// string starts from +0 at the end, and a string whose sum is at or below
// core.CoeffEps is dropped, the last string taking its place.
type refTerms []pauli.Term

func (b refTerms) add(p pauli.String, c complex128) refTerms {
	for i := range b {
		if b[i].P == p {
			v := b[i].Coeff + c
			if cmplx.Abs(v) <= core.CoeffEps {
				b[i] = b[len(b)-1]
				return b[:len(b)-1]
			}
			b[i].Coeff = v
			return b
		}
	}
	if v := 0 + c; cmplx.Abs(v) > core.CoeffEps {
		b = append(b, pauli.Term{Coeff: v, P: p})
	}
	return b
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

// spinSquared is S² = S₋S₊ + S_z(S_z + 1) on nOrb spatial orbitals, built
// as chem.S2Operator builds it before its transform.
func spinSquared(nOrb int) *fermion.Op {
	sp, sz := fermion.NewOp(), fermion.NewOp()
	for p := 0; p < nOrb; p++ {
		sp.Add(fermion.OneBody(2*p, 2*p+1), 1)
		sz.Add(fermion.Number(2*p), 0.5)
		sz.Add(fermion.Number(2*p+1), -0.5)
	}
	s2 := sp.Adjoint().Mul(sp)
	s2.Add(sz.Mul(sz), 1)
	return s2.Add(sz, 1)
}

// cancellingOp pairs each random a_p† a_q with −(−a_q a_p†): their images
// cancel exactly but for δ_pq, term by term and across terms.
func cancellingOp(rng *core.RNG, nModes, nPairs int) *fermion.Op {
	op := fermion.NewOp()
	for k := 0; k < nPairs; k++ {
		p, q := rng.Intn(nModes), rng.Intn(nModes)
		c := complex(rng.NormFloat64(), rng.NormFloat64())
		op.AddTerm(fermion.Term{Coeff: c, Ops: []fermion.Ladder{{Mode: p, Dagger: true}, {Mode: q}}})
		op.AddTerm(fermion.Term{Coeff: c, Ops: []fermion.Ladder{{Mode: q}, {Mode: p, Dagger: true}}})
	}
	return op
}

// equalToMap reports the first coefficient of got that differs from the
// map route's in any bit, or a different term count.
func equalToMap(got *pauli.Op, want map[pauli.String]complex128) error {
	if got.NumTerms() != len(want) {
		return fmt.Errorf("%d terms, map route %d", got.NumTerms(), len(want))
	}
	for p, w := range want {
		g := got.Coeff(p)
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			return fmt.Errorf("%s = %v, map route %v", p.Compact(), g, w)
		}
	}
	return nil
}

// TestJordanWignerBitEqualReference: every coefficient of JordanWigner is
// the map route's to the bit, on the pinned molecular models, 16-qubit
// water, a 10-site Hubbard chain, S², a downfolded operator, and seeded
// random ladder products: repeated modes, exact cancellations, and
// coefficients near core.CoeffEps.
func TestJordanWignerBitEqualReference(t *testing.T) {
	models := map[string]*fermion.Op{
		"h2":          chem.FermionicHamiltonian(chem.H2()),
		"water12":     chem.FermionicHamiltonian(chem.WaterLike()),
		"water16":     chem.FermionicHamiltonian(chem.WaterLikeScaled(8)),
		"hubbard4":    chem.FermionicHamiltonian(chem.Hubbard(4, 1, 4, 4)),
		"hubbard10":   chem.FermionicHamiltonian(chem.Hubbard(10, 1, 4, 10)),
		"s2":          spinSquared(6),
		"synthetic54": chem.FermionicHamiltonian(chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 5, NumElectrons: 4, Seed: 3})),
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
	models["cancelling"] = cancellingOp(rng, 6, 300)
	models["edge"] = fermion.NewOp().
		AddTerm(fermion.Term{Coeff: 1, Ops: []fermion.Ladder{{Mode: 0, Dagger: false}, {Mode: 0, Dagger: false}}}).
		AddTerm(fermion.Term{Coeff: 0.5 - 2i, Ops: []fermion.Ladder{{Mode: 1, Dagger: false}, {Mode: 1, Dagger: true}, {Mode: 1, Dagger: false}}}).
		AddTerm(fermion.Term{Coeff: 3e-12, Ops: []fermion.Ladder{{Mode: 2, Dagger: true}, {Mode: 0, Dagger: false}}}).
		AddTerm(fermion.Term{Coeff: 5e-12i, Ops: []fermion.Ladder{{Mode: 2, Dagger: true}, {Mode: 1, Dagger: true}, {Mode: 3}}}).
		AddTerm(fermion.Term{Coeff: -0.25i, Ops: []fermion.Ladder{{Mode: 3, Dagger: true}}}).
		AddTerm(fermion.Term{Coeff: 2})
	for name, op := range models {
		if err := equalToMap(op.JordanWigner(), jordanWignerMap(op)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzJordanWigner holds JordanWigner to the map route, bit for bit, on
// random ladder products over 1–8 modes at a coefficient scale from 1 down
// past core.CoeffEps, with cancelling pairs mixed in. Plain `go test`
// replays the committed corpus in testdata/fuzz; `make fuzz-smoke`
// explores beyond it.
func FuzzJordanWigner(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, modes, terms, scale uint8) {
		rng := core.NewRNG(seed)
		nModes := 1 + int(modes)%8
		op := randomLadderOp(rng, nModes, 1+int(terms)%64, math.Pow(10, -float64(scale%14)))
		if scale&0x80 != 0 {
			op.Add(cancellingOp(rng, nModes, 1+int(terms)%16), 1)
		}
		if err := equalToMap(op.JordanWigner(), jordanWignerMap(op)); err != nil {
			t.Fatalf("%d modes: %v", nModes, err)
		}
	})
}

// TestJordanWignerAllocationBound is an exact count gate on mapping a
// prebuilt water-12 operator: no allocation per term or ladder operator.
func TestJordanWignerAllocationBound(t *testing.T) {
	h := chem.FermionicHamiltonian(chem.WaterLike())
	if a := testing.AllocsPerRun(2, func() { h.JordanWigner() }); a > 1000 {
		t.Errorf("JordanWigner(water-12): %.0f allocations, bound 1 000", a)
	}
}
