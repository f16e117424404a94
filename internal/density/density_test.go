package density

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/state"
)

func TestNewIsPureZero(t *testing.T) {
	m := New(2)
	if !core.AlmostEqualC(m.Trace(), 1, 1e-12) {
		t.Error("trace != 1")
	}
	if math.Abs(m.Purity()-1) > 1e-12 {
		t.Error("purity != 1")
	}
	if m.At(0, 0) != 1 {
		t.Error("not |00⟩⟨00|")
	}
}

func TestUnitaryEvolutionMatchesStateVector(t *testing.T) {
	c := circuit.New(3).H(0).CX(0, 1).RY(0.7, 2).CZ(1, 2).T(0)
	m := New(3)
	if err := m.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	s := state.New(3, state.Options{})
	s.Run(c)
	ref := FromState(s)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !core.AlmostEqualC(m.At(i, j), ref.At(i, j), 1e-10) {
				t.Fatalf("ρ[%d][%d]: %v vs %v", i, j, m.At(i, j), ref.At(i, j))
			}
		}
	}
	if math.Abs(m.Purity()-1) > 1e-10 {
		t.Error("unitary evolution broke purity")
	}
}

func TestExpectationMatchesStateVector(t *testing.T) {
	c := circuit.New(2).H(0).CX(0, 1).RZ(0.3, 1)
	op := pauli.NewOp().Add(pauli.MustParse("ZZ"), 0.7).Add(pauli.MustParse("XI"), -0.2)
	m := New(2)
	if err := m.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	s := state.New(2, state.Options{})
	s.Run(c)
	want := pauli.Expectation(s, op, pauli.ExpectationOptions{})
	if got := m.Expectation(op); math.Abs(got-want) > 1e-10 {
		t.Errorf("Tr(ρH) = %v, want %v", got, want)
	}
}

func TestAllChannelsTracePreserving(t *testing.T) {
	check := func(name string, kraus []*linalg.Matrix) {
		m := New(2)
		m.ApplyGate(gate.New(gate.H, 0))
		m.ApplyGate(gate.New(gate.CX, 0, 1))
		if err := m.ApplyChannel(kraus, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !core.AlmostEqualC(m.Trace(), 1, 1e-10) {
			t.Errorf("%s: trace %v", name, m.Trace())
		}
	}
	check("depolarizing", DepolarizingKraus(0.2))
	check("amplitude-damping", AmplitudeDampingKraus(0.3))
	check("phase-damping", PhaseDampingKraus(0.25))
	check("bit-flip", BitFlipKraus(0.15))
}

func TestDepolarizingReducesPurity(t *testing.T) {
	m := New(1)
	m.ApplyGate(gate.New(gate.H, 0))
	before := m.Purity()
	m.ApplyChannel(DepolarizingKraus(0.2), 0)
	if m.Purity() >= before {
		t.Errorf("purity did not drop: %v → %v", before, m.Purity())
	}
}

func TestFullDepolarizationIsMaximallyMixed(t *testing.T) {
	m := New(1)
	m.ApplyGate(gate.New(gate.H, 0))
	// p = 3/4 gives the fully depolarizing channel.
	m.ApplyChannel(DepolarizingKraus(0.75), 0)
	if !core.AlmostEqualC(m.At(0, 0), 0.5, 1e-10) || !core.AlmostEqualC(m.At(1, 1), 0.5, 1e-10) {
		t.Errorf("not maximally mixed: %v, %v", m.At(0, 0), m.At(1, 1))
	}
	if math.Abs(m.Purity()-0.5) > 1e-10 {
		t.Errorf("purity %v, want 0.5", m.Purity())
	}
}

func TestAmplitudeDampingRelaxesToGround(t *testing.T) {
	m := New(1)
	m.ApplyGate(gate.New(gate.X, 0)) // |1⟩
	for i := 0; i < 60; i++ {
		m.ApplyChannel(AmplitudeDampingKraus(0.2), 0)
	}
	if real(m.At(0, 0)) < 0.999 {
		t.Errorf("did not relax to |0⟩: P0 = %v", real(m.At(0, 0)))
	}
}

func TestPhaseDampingKillsCoherence(t *testing.T) {
	m := New(1)
	m.ApplyGate(gate.New(gate.H, 0))
	offBefore := m.At(0, 1)
	for i := 0; i < 50; i++ {
		m.ApplyChannel(PhaseDampingKraus(0.3), 0)
	}
	if real(m.At(0, 0)) < 0.49 || real(m.At(1, 1)) < 0.49 {
		t.Error("populations changed under pure dephasing")
	}
	// ρ01 decays by √(1−λ) per application: (0.7)^25 ≈ 1.3e-4 remains.
	if cabs(m.At(0, 1)) > 1e-3*cabs(offBefore) {
		t.Errorf("coherence survived: %v", m.At(0, 1))
	}
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func TestNoiseModelDegradesFidelity(t *testing.T) {
	c := circuit.New(2).H(0).CX(0, 1)
	ideal := state.New(2, state.Options{})
	ideal.Run(c)

	noiseless := New(2)
	noiseless.Run(c, nil)
	if f := noiseless.Fidelity(ideal); math.Abs(f-1) > 1e-10 {
		t.Fatalf("noiseless fidelity %v", f)
	}

	noisy := New(2)
	if err := noisy.Run(c, DepolarizingModel(0.01, 0.05)); err != nil {
		t.Fatal(err)
	}
	f := noisy.Fidelity(ideal)
	if f >= 1-1e-6 || f < 0.8 {
		t.Errorf("noisy Bell fidelity %v outside (0.8, 1)", f)
	}
	if !core.AlmostEqualC(noisy.Trace(), 1, 1e-9) {
		t.Error("noise broke trace")
	}
}

// TestNoisyBellCorrelator: depolarizing noise shrinks a Bell pair's ⟨ZZ⟩
// strictly below 1, but not catastrophically.
func TestNoisyBellCorrelator(t *testing.T) {
	m := New(2)
	if err := m.Run(circuit.New(2).H(0).CX(0, 1), DepolarizingModel(0.02, 0.05)); err != nil {
		t.Fatal(err)
	}
	if e := m.Expectation(pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)); e >= 1-1e-9 || e < 0.7 {
		t.Errorf("noisy ⟨ZZ⟩ = %v, want in [0.7, 1)", e)
	}
}

func TestNoiseScalingMonotone(t *testing.T) {
	// Higher error rate → lower fidelity (ablation check).
	c := circuit.New(2).H(0).CX(0, 1).H(0).CX(0, 1)
	ideal := state.New(2, state.Options{})
	ideal.Run(c)
	prev := 1.0
	for _, p := range []float64{0.001, 0.01, 0.05} {
		m := New(2)
		m.Run(c, DepolarizingModel(p, p*2))
		f := m.Fidelity(ideal)
		if f >= prev {
			t.Errorf("fidelity not monotone: p=%v f=%v prev=%v", p, f, prev)
		}
		prev = f
	}
}

func TestRejectsMeasureGate(t *testing.T) {
	m := New(1)
	if err := m.ApplyGate(gate.New(gate.Measure, 0)); err == nil {
		t.Error("measure accepted")
	}
}

func TestProbabilitiesDiagonal(t *testing.T) {
	m := New(2)
	m.ApplyGate(gate.New(gate.H, 0))
	probs := m.Probabilities()
	if math.Abs(probs[0]-0.5) > 1e-12 || math.Abs(probs[1]-0.5) > 1e-12 {
		t.Errorf("probs %v", probs)
	}
}

func TestDensityAccessors(t *testing.T) {
	m := New(3)
	if m.NumQubits() != 3 {
		t.Error("NumQubits")
	}
	s := state.New(3, state.Options{})
	if f := FromState(s).Fidelity(s); math.Abs(f-1) > 1e-12 {
		t.Errorf("self fidelity %v", f)
	}
}
