package pauli

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
)

func TestOpAddMerges(t *testing.T) {
	op := NewOp()
	op.Add(MustParse("XZ"), 0.5)
	op.Add(MustParse("XZ"), 0.25)
	if op.NumTerms() != 1 || op.Coeff(MustParse("XZ")) != 0.75 {
		t.Error("add did not merge")
	}
	op.Add(MustParse("XZ"), -0.75)
	if op.NumTerms() != 0 {
		t.Error("cancelled term not removed")
	}
}

func TestOpMulMatchesDense(t *testing.T) {
	a := NewOp().Add(MustParse("XI"), 0.5).Add(MustParse("ZZ"), -0.3)
	b := NewOp().Add(MustParse("IY"), 1.2).Add(MustParse("XX"), 0.7)
	got := a.Mul(b).ToDense(2)
	want := a.ToDense(2).Mul(b.ToDense(2))
	if !got.Equal(want, 1e-12) {
		t.Error("operator product wrong")
	}
}

func TestCommutatorMatchesDense(t *testing.T) {
	a := NewOp().Add(MustParse("XY"), 0.4).Add(MustParse("ZI"), 1.0)
	b := NewOp().Add(MustParse("YX"), -0.8).Add(MustParse("IZ"), 0.2)
	got := a.Commutator(b).ToDense(2)
	da, db := a.ToDense(2), b.ToDense(2)
	want := da.Mul(db).Sub(db.Mul(da))
	if !got.Equal(want, 1e-12) {
		t.Error("commutator wrong")
	}
}

func TestCommutatorOfCommutingOpsIsZero(t *testing.T) {
	a := NewOp().Add(MustParse("ZI"), 1).Add(MustParse("IZ"), 1)
	b := NewOp().Add(MustParse("ZZ"), 2)
	if c := a.Commutator(b); c.NumTerms() != 0 {
		t.Errorf("[diag,diag] = %v", c)
	}
}

func TestScalarAndScale(t *testing.T) {
	op := Scalar(3)
	op.Scale(2)
	if op.Coeff(Identity) != 6 {
		t.Error("scale wrong")
	}
	op.Scale(0)
	if op.NumTerms() != 0 {
		t.Error("scale by zero should empty")
	}
}

func TestHermitian(t *testing.T) {
	op := NewOp().Add(MustParse("XY"), 0.5)
	if !op.IsHermitian(1e-12) {
		t.Error("real coeffs should be Hermitian")
	}
	op.Add(MustParse("ZZ"), 1i)
	if op.IsHermitian(1e-12) {
		t.Error("imag coeff accepted as Hermitian")
	}
	h := op.HermitianPart()
	if h.NumTerms() != 1 || h.Coeff(MustParse("XY")) != 0.5 {
		t.Errorf("hermitian part: %v", h)
	}
}

func TestToSparseHermitianAndEigen(t *testing.T) {
	// H = Z0 Z1 + 0.5 X0: check matrix is Hermitian and spectrum sensible.
	op := NewOp().Add(MustParse("ZZ"), 1).Add(MustParse("XI"), 0.5)
	d := op.ToDense(2)
	if !d.IsHermitian(1e-12) {
		t.Fatal("matrix not Hermitian")
	}
	res, err := linalg.EighJacobi(d)
	if err != nil {
		t.Fatal(err)
	}
	// Eigenvalues of ZZ+0.5·X⊗I: ±sqrt(1+0.25) = ±1.118… each twice.
	want := math.Sqrt(1.25)
	if math.Abs(res.Values[0]+want) > 1e-10 || math.Abs(res.Values[3]-want) > 1e-10 {
		t.Errorf("spectrum %v", res.Values)
	}
}

func TestMatVecMatchesSparse(t *testing.T) {
	op := NewOp().
		Add(MustParse("XYZ"), 0.7).
		Add(MustParse("ZII"), -0.2).
		Add(MustParse("IYX"), 0.4+0.1i)
	n := 3
	src := make([]complex128, 8)
	rng := core.NewRNG(5)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 8)
	op.MatVec(dst, src)
	want := op.ToSparse(n).MulVec(src)
	for i := range dst {
		if !core.AlmostEqualC(dst[i], want[i], 1e-10) {
			t.Fatalf("index %d: %v vs %v", i, dst[i], want[i])
		}
	}
}

func TestOneNormChopEqual(t *testing.T) {
	op := NewOp().Add(MustParse("X"), 3).Add(MustParse("Z"), -4i)
	if math.Abs(op.OneNorm()-7) > 1e-12 {
		t.Error("one-norm")
	}
	op.Add(MustParse("Y"), 1e-9)
	op.Chop(1e-6)
	if op.NumTerms() != 2 {
		t.Error("chop")
	}
	if !op.Equal(op.Clone(), 1e-12) {
		t.Error("clone should be equal")
	}
	other := op.Clone().Add(MustParse("X"), 0.1)
	if op.Equal(other, 1e-12) {
		t.Error("different ops equal")
	}
}

func TestOpString(t *testing.T) {
	op := NewOp().Add(MustParse("XI"), 0.5)
	if op.String() != "0.5·X0" {
		t.Errorf("String() = %q", op.String())
	}
	if NewOp().String() != "0" {
		t.Error("zero op string")
	}
}

func TestOpMatVecInterface(t *testing.T) {
	op := NewOp().Add(MustParse("Z"), -1)
	mv := OpMatVec{Op: op, N: 1}
	e, _, err := linalg.LanczosGround(mv, linalg.LanczosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e+1) > 1e-9 {
		t.Errorf("ground of -Z: %v", e)
	}
}

func TestFromTerms(t *testing.T) {
	op := FromTerms([]Term{
		{Coeff: 1, P: MustParse("X")},
		{Coeff: 2, P: MustParse("X")},
	})
	if op.Coeff(MustParse("X")) != 3 {
		t.Error("FromTerms didn't merge")
	}
}

// TestOpAddMatchesMap: Add, Coeff, NumTerms and Terms agree bit for bit
// with a map accumulating by the same rule (stored + c, deleted at or
// below core.CoeffEps), over additions that collide on few strings, cancel
// exactly, land near CoeffEps, and empty the operator and refill it —
// which revives removed strings across the index's growth.
func TestOpAddMatchesMap(t *testing.T) {
	rng := core.NewRNG(0x51)
	for round := 0; round < 20; round++ {
		op, ref := NewOp(), map[String]complex128{}
		strs := make([]String, 1+rng.Intn(300))
		for k := range strs {
			strs[k] = String{X: uint64(rng.Intn(64)), Z: uint64(rng.Intn(64))}
		}
		for k := 0; k < 4000; k++ {
			p := strs[rng.Intn(len(strs))]
			var c complex128
			switch rng.Intn(4) {
			case 0:
				c = -ref[p] // exact cancellation, or a fresh +0
			case 1:
				c = complex(rng.NormFloat64()*1e-12, rng.NormFloat64()*1e-12)
			default:
				c = complex(rng.NormFloat64(), float64(rng.Intn(2))*rng.NormFloat64())
			}
			op.Add(p, c)
			if v := ref[p] + c; core.Negligible(v) {
				delete(ref, p)
			} else {
				ref[p] = v
			}
			if k%997 == 0 {
				for p := range ref {
					op.Add(p, -ref[p])
					delete(ref, p)
				}
			}
		}
		if op.NumTerms() != len(ref) {
			t.Fatalf("round %d: %d terms, map %d", round, op.NumTerms(), len(ref))
		}
		for _, s := range strs {
			g, w := op.Coeff(s), ref[s]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("round %d: %s = %v, map %v", round, s.Compact(), g, w)
			}
		}
		for _, tm := range op.Terms() {
			if _, ok := ref[tm.P]; !ok {
				t.Fatalf("round %d: %s listed, not in the map", round, tm.P.Compact())
			}
		}
	}
}
