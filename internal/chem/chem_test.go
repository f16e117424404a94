package chem

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/pauli"
)

func TestH2Validates(t *testing.T) {
	if err := H2().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticValidates(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		m := Synthetic(SyntheticOptions{NumOrbitals: n, NumElectrons: n, Seed: uint64(n)})
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestHubbardValidates(t *testing.T) {
	if err := Hubbard(4, 1, 4, 4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	m := H2()
	m.OneBody[0][1] = 0.5 // break h symmetry
	if err := m.Validate(); err == nil {
		t.Error("asymmetric h accepted")
	}
}

func TestH2HartreeFockEnergy(t *testing.T) {
	// Literature RHF/STO-3G energy at R=0.7414 Å: −1.11668 Ha.
	e := HartreeFockEnergy(H2())
	if math.Abs(e-(-1.11668)) > 2e-4 {
		t.Errorf("HF energy %v, want ≈ -1.11668", e)
	}
}

func TestH2FCIEnergy(t *testing.T) {
	// Literature FCI/STO-3G energy: −1.13727 Ha.
	res, err := FCI(H2())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-(-1.13727)) > 2e-4 {
		t.Errorf("FCI energy %v, want ≈ -1.13727", res.Energy)
	}
	// Correlation energy is negative and small.
	if res.Energy >= HartreeFockEnergy(H2()) {
		t.Error("FCI above HF")
	}
}

func TestQubitHamiltonianHermitian(t *testing.T) {
	q := QubitHamiltonian(H2())
	if !q.IsHermitian(1e-10) {
		t.Error("qubit Hamiltonian not Hermitian")
	}
	if q.MaxQubit() != 3 {
		t.Errorf("acts on qubit %d, want 3", q.MaxQubit())
	}
}

func TestQubitHamiltonianMatchesSectorFCI(t *testing.T) {
	// The full-space qubit matrix restricted to the 2-electron sector must
	// reproduce the determinant-space FCI energy.
	m := H2()
	q := QubitHamiltonian(m)
	dense := q.ToDense(4)
	if !dense.IsHermitian(1e-9) {
		t.Fatal("dense form not Hermitian")
	}
	res, err := FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	// Check H·v = E·v for the scattered FCI ground vector.
	v := res.FullVector()
	hv := dense.MulVec(v)
	for i := range v {
		if !core.AlmostEqualC(hv[i], complex(res.Energy, 0)*v[i], 1e-7) {
			t.Fatalf("FCI vector is not an eigenvector of the qubit Hamiltonian (index %d)", i)
		}
	}
}

func TestHFDeterminantExpectation(t *testing.T) {
	// ⟨HF|H|HF⟩ evaluated on the JW qubit Hamiltonian must equal the
	// closed-form HF energy — a deep consistency check across integrals,
	// fermionic algebra, and JW.
	for _, m := range []*MolecularData{H2(), Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 7}), Hubbard(3, 1, 2, 2)} {
		q := QubitHamiltonian(m)
		det := HartreeFockDeterminant(m)
		// ⟨det|H|det⟩ = real part of the diagonal matrix element.
		var e complex128
		for _, term := range q.Terms() {
			j, ph := term.P.ApplyToBasis(det)
			if j == det {
				e += term.Coeff * ph
			}
		}
		want := HartreeFockEnergy(m)
		if math.Abs(real(e)-want) > 1e-8 {
			t.Errorf("%s: qubit ⟨HF|H|HF⟩ = %v, closed form %v", m.Name, real(e), want)
		}
	}
}

func TestEnumerateDeterminants(t *testing.T) {
	dets := enumerateDeterminants(4, 2)
	if len(dets) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(dets))
	}
	for i, d := range dets {
		if popcount(d) != 2 {
			t.Errorf("det %b has wrong electron count", d)
		}
		if i > 0 && dets[i-1] >= d {
			t.Error("not sorted")
		}
	}
	if len(enumerateDeterminants(4, 0)) != 1 {
		t.Error("empty sector")
	}
	if enumerateDeterminants(4, 5) != nil {
		t.Error("overfull sector should be empty")
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// applyLadderProduct applies an ordered ladder-operator product to a
// determinant (rightmost operator first), returning the resulting
// determinant and fermionic sign; ok is false if the product annihilates
// the state.
func applyLadderProduct(ops []fermion.Ladder, det uint64) (out uint64, sign float64, ok bool) {
	sign = 1
	for i := len(ops) - 1; i >= 0; i-- {
		l := ops[i]
		bit := uint64(1) << uint(l.Mode)
		if (det&bit != 0) == l.Dagger {
			return 0, 0, false
		}
		if bits.OnesCount64(det&(bit-1))%2 == 1 {
			sign = -sign
		}
		det ^= bit
	}
	return det, sign, true
}

func TestApplyLadderProduct(t *testing.T) {
	// a_1† a_0 |01⟩ = |10⟩ (modes 0 occupied → move to 1).
	ops := []fermion.Ladder{{Mode: 1, Dagger: true}, {Mode: 0, Dagger: false}}
	out, sign, ok := applyLadderProduct(ops, 0b01)
	if !ok || out != 0b10 || sign != 1 {
		t.Errorf("got %b sign %v ok %v", out, sign, ok)
	}
	// Annihilating an empty mode vanishes.
	if _, _, ok := applyLadderProduct([]fermion.Ladder{{Mode: 3, Dagger: false}}, 0b01); ok {
		t.Error("should vanish")
	}
	// Creating on an occupied mode vanishes.
	if _, _, ok := applyLadderProduct([]fermion.Ladder{{Mode: 0, Dagger: true}}, 0b01); ok {
		t.Error("should vanish")
	}
	// Fermionic sign: a_0 a_2 |101⟩ → a_2 (applied first) crosses the
	// occupied mode 0 → −|001⟩; then a_0 gives −|000⟩.
	out, sign, ok = applyLadderProduct([]fermion.Ladder{{Mode: 0, Dagger: false}, {Mode: 2, Dagger: false}}, 0b101)
	if !ok || out != 0 || sign != -1 {
		t.Errorf("sign test: %b %v %v", out, sign, ok)
	}
}

// ladderSectorMatrix is the determinant-space oracle for SectorMatrix:
// every term applied to every determinant by applyLadderProduct, summed
// per (row, column); components leaving the sector are dropped.
func ladderSectorMatrix(h *fermion.Op, dets []uint64) map[[2]int]complex128 {
	index := make(map[uint64]int, len(dets))
	for i, d := range dets {
		index[d] = i
	}
	terms := h.Terms()
	out := map[[2]int]complex128{}
	for col, det := range dets {
		for _, t := range terms {
			d, sign, ok := applyLadderProduct(t.Ops, det)
			if !ok {
				continue
			}
			if row, in := index[d]; in {
				out[[2]int{row, col}] += t.Coeff * complex(sign, 0)
			}
		}
	}
	return out
}

// sectorCase is an operator, the sector it is diagonalized in, and its
// ground energy there as recorded from the determinant-space ladder loop.
type sectorCase struct {
	m          *MolecularData // nil for a downfolded operator
	h          *fermion.Op
	nModes, ne int
	fci        float64
}

// sectorModels are the operators the sector-matrix checks run on: the
// pinned molecular models and the bare (order 0) and downfolded (order 2)
// active spaces of TestDownfoldImprovesOnBareProjection, built once.
var sectorModels = sync.OnceValues(func() (map[string]sectorCase, error) {
	out := map[string]sectorCase{}
	for _, c := range []struct {
		m   *MolecularData
		fci float64
	}{
		{H2(), -1.137268632280785},
		{WaterLike(), 1.2470896644012184},
		{Hubbard(4, 1, 4, 4), -1.9531453086845385},
		{Hubbard(6, 1, 8, 6), -1.7680987552605414},
		{Synthetic(SyntheticOptions{NumOrbitals: 5, NumElectrons: 4, Seed: 3}), -3.5039120476844192},
	} {
		out[c.m.Name] = sectorCase{c.m, FermionicHamiltonian(c.m), c.m.NumSpinOrbitals(), c.m.NumElectrons, c.fci}
	}
	downfolded := [][2]float64{ // seeds 1–5, orders 0 and 2
		{-2.0829614454266063, -2.0828906340482711},
		{-2.1805940164496831, -2.1805978564956918},
		{-2.3585300643030092, -2.3588371297310173},
		{-2.2748906253801242, -2.2751700798231465},
		{-2.0323698986435237, -2.0331828544564372},
	}
	for i, fci := range downfolded {
		m := Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: uint64(i + 1), Decay: 1.2, Correlation: 0.25})
		for k, order := range []int{0, 2} {
			d, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 2, Order: order})
			if err != nil {
				return nil, err
			}
			out[fmt.Sprintf("downfold seed %d order %d", i+1, order)] = sectorCase{nil, d.Fermionic, 4, 2, fci[k]}
		}
	}
	return out, nil
})

func TestSectorMatrixMatchesLadderOracle(t *testing.T) {
	models, err := sectorModels()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range models {
		sp, dets, err := SectorMatrix(c.h, c.nModes, c.ne)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ladderSectorMatrix(c.h, dets)
		for r := 0; r < sp.N; r++ {
			for k := sp.RowPtr[r]; k < sp.RowPtr[r+1]; k++ {
				at := [2]int{r, sp.ColIdx[k]}
				if !core.AlmostEqualC(sp.Vals[k], want[at], 1e-12) {
					t.Fatalf("%s: entry %v = %v, oracle %v", name, at, sp.Vals[k], want[at])
				}
				delete(want, at)
			}
		}
		for at, v := range want {
			if cmplx.Abs(v) > 1e-12 {
				t.Fatalf("%s: entry %v missing, oracle %v", name, at, v)
			}
		}
	}
}

// TestFCIEnergiesPinned holds every sector model's ground energy to its
// recorded value to 1e-12.
func TestFCIEnergiesPinned(t *testing.T) {
	models, err := sectorModels()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range models {
		var res *FCIResult
		if c.m != nil {
			res, err = FCI(c.m)
		} else {
			res, err = FCIofOp(c.h, c.nModes, c.ne)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Energy-c.fci) > 1e-12 {
			t.Errorf("%s: FCI %.17g, pinned %.17g", name, res.Energy, c.fci)
		}
	}
}

// TestSectorMatrixRejectsNumberViolation: an operator that moves a
// determinant out of its particle-number sector has no sector matrix.
func TestSectorMatrixRejectsNumberViolation(t *testing.T) {
	create := fermion.NewOp().AddTerm(fermion.Term{Coeff: 1, Ops: []fermion.Ladder{{Mode: 0, Dagger: true}}})
	if _, _, err := SectorMatrix(create, 4, 2); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("lone a†₀: err = %v, want ErrInvalidArgument", err)
	}
}

// TestQubitHamiltonianAllocationBound is a count gate on building
// water-12's qubit Hamiltonian from its integrals. fermion.Op keys a term
// by one byte per ladder, so what is left is about one key string and one
// ladder slice per stored term: 9 699 allocations, 9 703 under -race.
// The bound leaves ≈20 % on top for map growth across Go releases; a
// formatted string key per product (≈24 500, 33 490 under -race) fails
// it.
func TestQubitHamiltonianAllocationBound(t *testing.T) {
	a := testing.AllocsPerRun(2, func() { QubitHamiltonian(WaterLike()) })
	t.Logf("QubitHamiltonian(WaterLike()): %.0f allocations", a)
	if a > 12000 {
		t.Errorf("QubitHamiltonian(WaterLike()): %.0f allocations, bound 12 000", a)
	}
}

// TestFCIWater16Pinned is the 16-qubit pin: C(16,8) = 12 870 determinants.
func TestFCIWater16Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("16-qubit FCI")
	}
	res, err := FCI(WaterLikeScaled(8))
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.55491457922021414; math.Abs(res.Energy-want) > 1e-12 {
		t.Errorf("FCI %.17g, pinned %.17g", res.Energy, want)
	}
}

// TestFCIFromQubitHamiltonianBitEqual: the sector of the qubit observable
// a job evaluates, NewPlan(QubitHamiltonian(m)), has the ground energy of
// the fermionic operator's own Jordan–Wigner sector to the bit, so the
// FCI reference can read the job's plan instead of building H again.
func TestFCIFromQubitHamiltonianBitEqual(t *testing.T) {
	models, err := sectorModels()
	if err != nil {
		t.Fatal(err)
	}
	var ms []*MolecularData
	for _, c := range models {
		if c.m != nil {
			ms = append(ms, c.m)
		}
	}
	if !testing.Short() {
		ms = append(ms, WaterLikeScaled(8))
	}
	for _, m := range ms {
		n := m.NumSpinOrbitals()
		sub, err := pauli.NewPlan(QubitHamiltonian(m)).Restrict(pauli.SubspaceOf(enumerateDeterminants(n, m.NumElectrons)))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		e, _, err := lanczosOrDense(sub.Sparse())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		fci, err := FCI(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		ofOp, err := FCIofOp(FermionicHamiltonian(m), n, m.NumElectrons)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if e != fci.Energy || e != ofOp.Energy {
			t.Errorf("%s: qubit-observable sector %.17g, FCI %.17g, FCIofOp %.17g", m.Name, e, fci.Energy, ofOp.Energy)
		}
	}
}

func TestFCIVariationalBound(t *testing.T) {
	// FCI ≤ HF for any molecule (variational principle).
	for _, m := range []*MolecularData{
		H2(),
		Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 4, Seed: 11}),
		Hubbard(3, 1, 3, 2),
	} {
		res, err := FCI(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.Energy > HartreeFockEnergy(m)+1e-9 {
			t.Errorf("%s: FCI %v above HF %v", m.Name, res.Energy, HartreeFockEnergy(m))
		}
	}
}

func TestHubbardAtomLimit(t *testing.T) {
	// Single-site Hubbard with 2 electrons: E = U.
	m := Hubbard(1, 0, 4.0, 2)
	res, err := FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-4.0) > 1e-9 {
		t.Errorf("Hubbard atom E = %v, want 4", res.Energy)
	}
}

func TestHubbardDimerExact(t *testing.T) {
	// Half-filled Hubbard dimer ground energy: E = (U − sqrt(U² + 16t²))/2.
	tHop, u := 1.0, 4.0
	m := Hubbard(2, tHop, u, 2)
	res, err := FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	want := (u - math.Sqrt(u*u+16*tHop*tHop)) / 2
	if math.Abs(res.Energy-want) > 1e-9 {
		t.Errorf("dimer E = %v, want %v", res.Energy, want)
	}
}

func TestSectorDimension(t *testing.T) {
	if SectorDimension(12, 8) != 495 {
		t.Errorf("C(12,8) = %d", SectorDimension(12, 8))
	}
}

func TestWaterLikeShape(t *testing.T) {
	m := WaterLike()
	if m.NumSpinOrbitals() != 12 || m.NumElectrons != 8 {
		t.Fatalf("water model: %d spin orbitals, %d electrons", m.NumSpinOrbitals(), m.NumElectrons)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWaterLikeScaledTermGrowth(t *testing.T) {
	// Term counts must grow superlinearly with qubit count (Fig 1b shape).
	t12 := QubitHamiltonian(WaterLikeScaled(6)).NumTerms()
	t16 := QubitHamiltonian(WaterLikeScaled(8)).NumTerms()
	if t16 <= t12 {
		t.Errorf("no growth: %d → %d", t12, t16)
	}
	ratio := float64(t16) / float64(t12)
	// O(N⁴) growth predicts (8/6)⁴ ≈ 3.2; demand clearly superlinear.
	if ratio < 1.5 {
		t.Errorf("growth ratio %v too small for quartic scaling", ratio)
	}
}

func TestDownfoldShapes(t *testing.T) {
	m := Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 5})
	res, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 2, Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Qubit.MaxQubit() >= 4 {
		t.Errorf("effective Hamiltonian escapes active space: qubit %d", res.Qubit.MaxQubit())
	}
	if !res.Qubit.IsHermitian(1e-8) {
		t.Error("effective Hamiltonian not Hermitian")
	}
	if res.SigmaTerms == 0 {
		t.Error("no external amplitudes found")
	}
}

func TestDownfoldImprovesOnBareProjection(t *testing.T) {
	// The paper's core claim for downfolding: commutator-corrected
	// H_eff recovers the full-space ground energy better than bare
	// truncation. Verify on weakly-correlated synthetic systems.
	improved := 0
	total := 0
	for seed := uint64(1); seed <= 5; seed++ {
		m := Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: seed, Decay: 1.2, Correlation: 0.25})
		full, err := FCI(m)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := BareActive(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		down, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 2, Order: 2})
		if err != nil {
			t.Fatal(err)
		}
		eBare, err := FCIofOp(bare.Fermionic, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		eDown, err := FCIofOp(down.Fermionic, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		errBare := math.Abs(eBare.Energy - full.Energy)
		errDown := math.Abs(eDown.Energy - full.Energy)
		total++
		if errDown < errBare {
			improved++
		}
	}
	if improved < 3 {
		t.Errorf("downfolding improved only %d/%d cases", improved, total)
	}
}

func TestDownfoldOrderZeroEqualsBare(t *testing.T) {
	m := Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 9})
	a, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 2, Order: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BareActive(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Qubit.Equal(b.Qubit, 1e-12) {
		t.Error("order-0 downfold differs from bare projection")
	}
}

func TestDownfoldRejectsBadOptions(t *testing.T) {
	m := H2()
	if _, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 0}); err == nil {
		t.Error("zero active orbitals accepted")
	}
	if _, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 5}); err == nil {
		t.Error("active > total accepted")
	}
	if _, err := Downfold(m, DownfoldOptions{ActiveOrbitals: 2, Order: 3}); err == nil {
		t.Error("order 3 accepted")
	}
	tiny := Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 4, Seed: 1})
	if _, err := Downfold(tiny, DownfoldOptions{ActiveOrbitals: 1}); err == nil {
		t.Error("electrons exceeding active space accepted")
	}
}

func TestOrbitalEnergiesOrdering(t *testing.T) {
	m := Synthetic(SyntheticOptions{NumOrbitals: 4, NumElectrons: 2, Seed: 13})
	eps := orbitalEnergies(m)
	if len(eps) != 8 {
		t.Fatal("length")
	}
	// α/β of the same spatial orbital must be degenerate.
	for p := 0; p < 4; p++ {
		if math.Abs(eps[2*p]-eps[2*p+1]) > 1e-12 {
			t.Error("spin degeneracy broken")
		}
	}
}

func TestFermionicHamiltonianHermitian(t *testing.T) {
	m := Synthetic(SyntheticOptions{NumOrbitals: 2, NumElectrons: 2, Seed: 21})
	h := FermionicHamiltonian(m)
	d := h.JordanWigner().ToDense(4)
	if !d.IsHermitian(1e-9) {
		t.Error("fermionic Hamiltonian not Hermitian under JW")
	}
}

func TestQubitHamiltonianGroundViaLanczos(t *testing.T) {
	// Full-space Lanczos ground energy must be ≤ sector FCI energy (the
	// sector is a subspace) — and for H2 the global ground lies in the
	// 2-electron sector, so they must match.
	m := H2()
	q := QubitHamiltonian(m)
	e, _, err := linalg.LanczosGround(pauli.OpMatVec{Op: q, N: 4}, linalg.LanczosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := FCI(m)
	if e > res.Energy+1e-8 {
		t.Errorf("full-space ground %v above sector ground %v", e, res.Energy)
	}
	if math.Abs(e-res.Energy) > 1e-6 {
		t.Logf("note: H2 global ground %v vs sector %v (different sector)", e, res.Energy)
	}
}

func TestTaperedHamiltonianH2(t *testing.T) {
	m := H2()
	res, err := TaperedHamiltonian(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumQubits != 1 {
		t.Fatalf("H2 tapered to %d qubits, want 1", res.NumQubits)
	}
	fci, err := FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := linalg.GroundState(res.Tapered.ToDense(res.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-fci.Energy) > 1e-8 {
		t.Errorf("tapered ground %v vs FCI %v", e, fci.Energy)
	}
}

func TestTaperedHamiltonianSynthetic(t *testing.T) {
	m := Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 8})
	res, err := TaperedHamiltonian(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumQubits >= m.NumSpinOrbitals() {
		t.Fatalf("no qubit reduction: %d", res.NumQubits)
	}
	fci, err := FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := linalg.LanczosGround(pauli.OpMatVec{Op: res.Tapered, N: res.NumQubits}, linalg.LanczosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e > fci.Energy+1e-8 {
		t.Errorf("tapered sector ground %v above FCI %v", e, fci.Energy)
	}
	if math.Abs(e-fci.Energy) > 1e-6 {
		t.Logf("note: HF sector ground %v vs FCI %v (global ground may sit in another sector)", e, fci.Energy)
	}
}

func TestMP2BetweenHFAndFCI(t *testing.T) {
	// For weakly correlated systems MP2 recovers part of the correlation
	// energy: E_FCI ≤ E_MP2 < E_HF (the first inequality is not a strict
	// theorem but holds for these systems).
	for _, m := range []*MolecularData{
		H2(),
		Synthetic(SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 4, Correlation: 0.25, Decay: 1.2}),
	} {
		hf := HartreeFockEnergy(m)
		mp2 := MP2Energy(m)
		fci, err := FCI(m)
		if err != nil {
			t.Fatal(err)
		}
		if mp2 >= hf {
			t.Errorf("%s: MP2 %v not below HF %v", m.Name, mp2, hf)
		}
		if mp2 < fci.Energy-0.05 {
			t.Errorf("%s: MP2 %v far below FCI %v (overshoot)", m.Name, mp2, fci.Energy)
		}
	}
}

func TestMP2H2LiteratureValue(t *testing.T) {
	// H2/STO-3G MP2 correlation ≈ −0.013 Ha → E_MP2 ≈ −1.130 Ha.
	mp2 := MP2Energy(H2())
	if math.Abs(mp2-(-1.1298)) > 2e-3 {
		t.Errorf("MP2 = %v, want ≈ -1.1298", mp2)
	}
}
