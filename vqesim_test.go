package vqesim

import (
	"context"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/pauli"
)

// vqeOnH2 runs a spec's algorithm sections against the H2 molecule value.
func vqeOnH2(spec *RunSpec) (*RunResult, error) {
	return RunOnMolecule(context.Background(), H2(), spec, RunOptions{})
}

// nelderMead is a spec on the gradient-free optimizer, with the iteration
// allowance direct/rotated H2 runs need to converge.
func nelderMead(mode string) *RunSpec {
	spec := &RunSpec{Mode: mode}
	spec.Optimizer.Method, spec.Optimizer.MaxIter = "nelder-mead", 4000
	return spec
}

func TestGroundStateVQEH2(t *testing.T) {
	res, err := vqeOnH2(&RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-(-1.13727)) > 5e-4 {
		t.Errorf("H2 VQE energy %v", res.Energy)
	}
	if res.ErrorVsExact > 1e-6 {
		t.Errorf("error vs FCI %v", res.ErrorVsExact)
	}
}

func TestGroundStateVQEModes(t *testing.T) {
	for _, mode := range []string{"direct", "rotated"} {
		res, err := vqeOnH2(nelderMead(mode))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.ErrorVsExact > 1e-4 {
			t.Errorf("%s: error %v", mode, res.ErrorVsExact)
		}
	}
	if _, err := vqeOnH2(&RunSpec{Mode: "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
	bogus := &RunSpec{}
	bogus.Optimizer.Method = "bogus"
	if _, err := vqeOnH2(bogus); err == nil {
		t.Error("bogus optimizer accepted")
	}
}

func TestGroundStateVQEWithFusion(t *testing.T) {
	res, err := vqeOnH2(&RunSpec{Fusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorVsExact > 1e-6 {
		t.Errorf("fusion changed physics: %v", res.ErrorVsExact)
	}
}

func TestGroundStateAdaptVQEH2(t *testing.T) {
	spec := &RunSpec{Algorithm: "adapt"}
	spec.Adapt.MaxIterations = 8
	res, err := vqeOnH2(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Energy-res.Exact) > ChemicalAccuracy {
		t.Errorf("adapt error %v", math.Abs(res.Energy-res.Exact))
	}
}

func TestGroundStateQPEH2(t *testing.T) {
	res, err := GroundStateQPE(H2(), QPEConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := ExactGroundEnergy(H2())
	if math.Abs(res.Energy-exact) > 2*res.Resolution {
		t.Errorf("QPE %v vs FCI %v (res %v)", res.Energy, exact, res.Resolution)
	}
}

func TestExactAndHFEnergies(t *testing.T) {
	fci, err := ExactGroundEnergy(H2())
	if err != nil {
		t.Fatal(err)
	}
	hf := HartreeFockEnergy(H2())
	if fci >= hf {
		t.Error("FCI above HF")
	}
}

func TestDownfoldShrinksObservable(t *testing.T) {
	m := Synthetic(3, 2, 5)
	full := Hamiltonian(m)
	eff, err := Downfold(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eff.MaxQubit() >= 4 {
		t.Error("downfolded observable too wide")
	}
	if full.MaxQubit() < 5 {
		t.Error("full observable unexpectedly narrow")
	}
}

func TestSimulateAndExpectation(t *testing.T) {
	c := NewCircuit(4).H(0).CX(0, 1)
	s := Simulate(c, 1)
	if math.Abs(s.Probability(1)-0.5) > 1e-9 {
		t.Error("Bell probability wrong")
	}
	// Any state's H2 energy sits above FCI (variational bound).
	e := Expectation(s, Hamiltonian(H2()))
	fci, _ := ExactGroundEnergy(H2())
	if e < fci-1e-9 {
		t.Errorf("expectation %v below FCI %v violates variational bound", e, fci)
	}
}

func TestFuseReduces(t *testing.T) {
	c := NewCircuit(2).H(0).T(0).S(0).CX(0, 1).RZ(0.3, 1).CX(0, 1)
	f := Fuse(c, 2)
	if f.GateCount() >= c.GateCount() {
		t.Errorf("no reduction: %d → %d", c.GateCount(), f.GateCount())
	}
}

func TestCachingGateCost(t *testing.T) {
	non, cached, err := CachingGateCost(H2())
	if err != nil {
		t.Fatal(err)
	}
	if non <= cached {
		t.Errorf("caching not cheaper: %d vs %d", non, cached)
	}
	if float64(non)/float64(cached) < 2 {
		t.Errorf("savings factor too small: %d/%d", non, cached)
	}
}

func TestHubbardFacade(t *testing.T) {
	m := Hubbard(2, 1, 4, 2)
	e, err := ExactGroundEnergy(m)
	if err != nil {
		t.Fatal(err)
	}
	want := (4 - math.Sqrt(16+16)) / 2
	if math.Abs(e-want) > 1e-9 {
		t.Errorf("dimer energy %v, want %v", e, want)
	}
}

func TestTaperedHamiltonianFacade(t *testing.T) {
	op, n, err := TaperedHamiltonian(H2())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("tapered width %d, want 1", n)
	}
	if op.NumTerms() == 0 {
		t.Fatal("empty tapered operator")
	}
}

func TestHamiltonianBKSameSpectrumAsJW(t *testing.T) {
	m := H2()
	bk, err := HamiltonianBK(m)
	if err != nil {
		t.Fatal(err)
	}
	fci, _ := ExactGroundEnergy(m)
	// BK ground energy over the full space must be ≤ the JW particle-
	// sector FCI and in fact equal to the JW global ground.
	jw := Hamiltonian(m)
	eJW := groundEnergyOf(t, jw, 4)
	eBK := groundEnergyOf(t, bk, 4)
	if math.Abs(eJW-eBK) > 1e-8 {
		t.Errorf("BK ground %v vs JW ground %v", eBK, eJW)
	}
	_ = fci
}

func groundEnergyOf(t *testing.T, op *Observable, n int) float64 {
	t.Helper()
	e, _, err := linalgGround(op, n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestH2AtDistanceFacade(t *testing.T) {
	m, err := H2AtDistance(0.7414)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExactGroundEnergy(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-(-1.13727)) > 1e-3 {
		t.Errorf("equilibrium FCI %v", e)
	}
}

func TestNoisyExpectationFacade(t *testing.T) {
	c := NewCircuit(2).H(0).CX(0, 1)
	obs := zzObservable()
	mean, stderr, err := NoisyExpectation(c, obs, 0.02, 0.05, 500)
	if err != nil {
		t.Fatal(err)
	}
	if mean >= 1 || mean < 0.5 {
		t.Errorf("noisy ⟨ZZ⟩ = %v", mean)
	}
	if stderr <= 0 {
		t.Error("no statistical error reported")
	}
}

// linalgGround diagonalizes a small observable.
func linalgGround(op *Observable, n int) (float64, []complex128, error) {
	return linalg.GroundState(op.ToDense(n))
}

// zzObservable returns Z₀Z₁.
func zzObservable() *Observable {
	return pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
}

func TestWaterLikeFacade(t *testing.T) {
	m := WaterLike()
	if m.NumSpinOrbitals() != 12 || m.NumElectrons != 8 {
		t.Errorf("water model shape: %d qubits, %d electrons", m.NumSpinOrbitals(), m.NumElectrons)
	}
	h := Hamiltonian(m)
	if h.NumTerms() < 1000 {
		t.Errorf("implausibly small observable: %d terms", h.NumTerms())
	}
}
