package pauli

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// xxz returns an XXZ-type test Hamiltonian with a global Z-parity
// symmetry.
func xxz(n int) *Op {
	h := NewOp()
	for i := 0; i+1 < n; i++ {
		h.Add(String{X: 3 << uint(i)}, 0.5)
		h.Add(String{X: 3 << uint(i), Z: 3 << uint(i)}, 0.5) // YY
		h.Add(String{Z: 3 << uint(i)}, 0.3)
	}
	for i := 0; i < n; i++ {
		h.Add(String{Z: 1 << uint(i)}, -0.2)
	}
	return h
}

func TestFindZSymmetriesXXZ(t *testing.T) {
	// XX+YY terms flip pairs of spins: total Z-parity Z⊗…⊗Z commutes.
	n := 4
	syms := FindZSymmetries(xxz(n), n)
	if len(syms) == 0 {
		t.Fatal("no symmetries found")
	}
	// Every returned string must commute with every Hamiltonian term.
	for _, s := range syms {
		for _, term := range xxz(n).Terms() {
			if !s.Commutes(term.P) {
				t.Fatalf("claimed symmetry %s does not commute with %s", s.Compact(), term.P.Compact())
			}
		}
	}
}

func TestFindZSymmetriesCountsH2(t *testing.T) {
	h := h2Hamiltonian()
	syms := FindZSymmetries(h, 4)
	// H2 under JW has 3 independent Z-type symmetries (α-parity, β-parity,
	// and a Z0Z1-type pair symmetry), allowing 4 → 1 qubit tapering.
	if len(syms) != 3 {
		t.Fatalf("found %d symmetries, want 3: %v", len(syms), syms)
	}
	for _, s := range syms {
		for _, term := range h.Terms() {
			if !s.Commutes(term.P) {
				t.Fatalf("%s fails to commute", s.Compact())
			}
		}
	}
}

// h2Hamiltonian is the H2/STO-3G qubit Hamiltonian with literature
// coefficients (independent of the chem package to avoid an import
// cycle in tests).
func h2Hamiltonian() *Op {
	// Standard JW form (qubit order: spin orbitals 0α,0β,1α,1β).
	h := NewOp()
	h.Add(Identity, -0.81054798)
	h.Add(MustParse("ZIII"), 0.17218393)
	h.Add(MustParse("IZII"), 0.17218393)
	h.Add(MustParse("IIZI"), -0.22575349)
	h.Add(MustParse("IIIZ"), -0.22575349)
	h.Add(MustParse("ZZII"), 0.12091263)
	h.Add(MustParse("IIZZ"), 0.12091263)
	h.Add(MustParse("ZIZI"), 0.16892754)
	h.Add(MustParse("IZIZ"), 0.16892754)
	h.Add(MustParse("ZIIZ"), 0.16614543)
	h.Add(MustParse("IZZI"), 0.16614543)
	h.Add(MustParse("XXYY"), -0.04523280)
	h.Add(MustParse("YYXX"), -0.04523280)
	h.Add(MustParse("XYYX"), 0.04523280)
	h.Add(MustParse("YXXY"), 0.04523280)
	return h
}

func groundOf(t *testing.T, op *Op, n int) float64 {
	t.Helper()
	res, err := linalg.EighJacobi(op.ToDense(n))
	if err != nil {
		t.Fatal(err)
	}
	return res.Values[0]
}

func TestTaperPreservesSpectrumSector(t *testing.T) {
	// Every eigenvalue of the tapered operator (for every sector) must be
	// an eigenvalue of the full operator — tapering block-diagonalizes.
	h := xxz(4)
	fullRes, err := linalg.EighJacobi(h.ToDense(4))
	if err != nil {
		t.Fatal(err)
	}
	syms := FindZSymmetries(h, 4)
	if len(syms) == 0 {
		t.Skip("no symmetries")
	}
	canon, _, err := CanonicalZGenerators(syms)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 1<<uint(len(canon)); mask++ {
		sector := make([]int, len(canon))
		for i := range sector {
			sector[i] = 1
			if mask>>uint(i)&1 == 1 {
				sector[i] = -1
			}
		}
		res, err := Taper(h, 4, canon, sector)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := linalg.EighJacobi(res.Tapered.ToDense(res.NumQubits))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range sub.Values {
			found := false
			for _, fv := range fullRes.Values {
				if math.Abs(ev-fv) < 1e-8 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sector %v: eigenvalue %v not in the full spectrum", sector, ev)
			}
		}
	}
}

func TestTaperSectorDimensionsAddUp(t *testing.T) {
	// Σ over sectors of 2^{n−k} = 2ⁿ: tapering partitions the space.
	h := h2Hamiltonian()
	syms := FindZSymmetries(h, 4)
	canon, _, _ := CanonicalZGenerators(syms)
	total := 0
	for mask := 0; mask < 1<<uint(len(canon)); mask++ {
		sector := make([]int, len(canon))
		for i := range sector {
			sector[i] = 1
			if mask>>uint(i)&1 == 1 {
				sector[i] = -1
			}
		}
		res, err := Taper(h, 4, canon, sector)
		if err != nil {
			t.Fatal(err)
		}
		total += 1 << uint(res.NumQubits)
	}
	if total != 16 {
		t.Errorf("sector dimensions sum to %d, want 16", total)
	}
}

func TestSectorFromDeterminantPicksGround(t *testing.T) {
	// The HF determinant |0011⟩ (qubits 0,1 occupied) lies in the ground
	// sector of H2; using its symmetry eigenvalues must reproduce the full
	// ground energy without sector scanning.
	h := h2Hamiltonian()
	full := groundOf(t, h, 4)
	syms := FindZSymmetries(h, 4)
	canon, _, err := CanonicalZGenerators(syms)
	if err != nil {
		t.Fatal(err)
	}
	sector := SectorFromDeterminant(canon, 0b0011)
	res, err := Taper(h, 4, canon, sector)
	if err != nil {
		t.Fatal(err)
	}
	if e := groundOf(t, res.Tapered, res.NumQubits); math.Abs(e-full) > 1e-9 {
		t.Errorf("HF-sector tapered ground %v vs full %v", e, full)
	}
}

func TestConjugateByCliffordPreservesSpectrum(t *testing.T) {
	// U H U is a similarity transform: spectra match exactly.
	h := xxz(3)
	tau := String{Z: 0b111}
	rotated := conjugateByClifford(h, tau, 0)
	a, err := linalg.EighJacobi(h.ToDense(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := linalg.EighJacobi(rotated.ToDense(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if math.Abs(a.Values[i]-b.Values[i]) > 1e-9 {
			t.Fatalf("eigenvalue %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
}

func TestConjugateByCliffordMatchesDense(t *testing.T) {
	// Direct check of U P U against dense matrices for U = (X₀ + Z₀Z₁)/√2.
	tau := String{Z: 0b11}
	xq := String{X: 1}
	n := 2
	u := NewOp().Add(xq, complex(1/math.Sqrt2, 0)).Add(tau, complex(1/math.Sqrt2, 0)).ToDense(n)
	for _, lbl := range []string{"XI", "IZ", "ZI", "YY", "ZZ", "XX", "YX"} {
		p := MustParse(lbl)
		got := conjugateByClifford(NewOp().Add(p, 1), tau, 0).ToDense(n)
		pd := NewOp().Add(p, 1).ToDense(n)
		want := u.Mul(pd).Mul(u)
		if !got.Equal(want, 1e-10) {
			t.Errorf("%s: Clifford conjugation wrong", lbl)
		}
	}
}

func TestTaperValidation(t *testing.T) {
	h := xxz(4)
	syms := FindZSymmetries(h, 4)
	if _, err := Taper(h, 4, syms, []int{1}); err == nil && len(syms) != 1 {
		t.Error("sector length mismatch accepted")
	}
	if len(syms) > 0 {
		bad := make([]int, len(syms))
		bad[0] = 2
		for i := 1; i < len(bad); i++ {
			bad[i] = 1
		}
		if _, err := Taper(h, 4, syms, bad); err == nil {
			t.Error("sector value 2 accepted")
		}
	}
	xSym := []String{{X: 1}}
	if _, err := Taper(h, 4, xSym, []int{1}); err == nil {
		t.Error("non-Z generator accepted")
	}
}

func TestCompressBits(t *testing.T) {
	// Remove bits 1 and 3 from 0b11011: surviving positions {0,2,4} carry
	// values 1,0,1 → 0b101.
	if got := compressBits(0b11011&^0b01010, 0b01010); got != 0b101 {
		t.Errorf("compress = %b", got)
	}
	if compressBits(0, 0b10) != 0 {
		t.Error("zero case")
	}
}
