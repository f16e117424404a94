package ansatz

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/state"
)

func TestAppendPauliExpMatchesMatrixExponential(t *testing.T) {
	for _, lbl := range []string{"Z", "X", "Y", "ZZ", "XY", "YXZ", "XIY"} {
		p := pauli.MustParse(lbl)
		n := len(lbl)
		theta := 0.731
		c := circuit.New(n)
		AppendPauliExp(c, theta, p)
		got := c.Unitary()
		// exp(−iθ/2·P) via dense exponential.
		pm := pauli.NewOp().Add(p, 1).ToDense(n)
		want := linalg.Expm(pm.Scale(complex(0, -theta/2)))
		if !got.EqualUpToPhase(want, 1e-9) {
			t.Errorf("%s: exp circuit wrong", lbl)
		}
	}
}

func TestAppendPauliExpIdentityIsEmpty(t *testing.T) {
	c := circuit.New(2)
	AppendPauliExp(c, 1.0, pauli.Identity)
	if c.GateCount() != 0 {
		t.Error("identity exponential appended gates")
	}
}

func TestExcitationExpIsUnitaryAndMatchesExpm(t *testing.T) {
	exs := Singles(4, 2)
	if len(exs) == 0 {
		t.Fatal("no singles")
	}
	ex := exs[0]
	theta := 0.42
	c := circuit.New(4)
	ex.AppendExp(c, theta)
	got := c.Unitary()
	gen := ex.Generator().ToDense(4)
	want := linalg.Expm(gen.Scale(complex(theta, 0)))
	if !got.EqualUpToPhase(want, 1e-9) {
		t.Error("single-excitation exponential wrong")
	}
}

func TestDoubleExcitationExpMatchesExpm(t *testing.T) {
	exs := Doubles(4, 2)
	if len(exs) == 0 {
		t.Fatal("no doubles")
	}
	for _, ex := range exs {
		theta := -0.63
		c := circuit.New(4)
		ex.AppendExp(c, theta)
		got := c.Unitary()
		want := linalg.Expm(ex.Generator().ToDense(4).Scale(complex(theta, 0)))
		if !got.EqualUpToPhase(want, 1e-9) {
			t.Errorf("%s: double exponential wrong", ex.Label)
		}
	}
}

func TestGeneratorsAntiHermitian(t *testing.T) {
	for _, ex := range append(Singles(6, 2), Doubles(6, 2)...) {
		d := ex.Generator().ToDense(6)
		if !d.Add(d.Adjoint()).Equal(linalg.NewMatrix(64, 64), 1e-10) {
			t.Errorf("%s: generator not anti-Hermitian", ex.Label)
		}
	}
}

func TestExcitationTermsCommute(t *testing.T) {
	// All Pauli terms of one excitation must mutually commute (this is
	// what makes the product of exponentials exact).
	for _, ex := range Doubles(6, 2)[:3] {
		for i := range ex.Paulis {
			for j := i + 1; j < len(ex.Paulis); j++ {
				if !ex.Paulis[i].P.Commutes(ex.Paulis[j].P) {
					t.Fatalf("%s: terms %d,%d do not commute", ex.Label, i, j)
				}
			}
		}
	}
}

func TestSinglesCount(t *testing.T) {
	// 2 electrons in 4 spin orbitals: i∈{0,1}, a∈{2,3}, same spin →
	// (0→2) and (1→3).
	if got := len(Singles(4, 2)); got != 2 {
		t.Errorf("singles = %d, want 2", got)
	}
}

func TestDoublesCount(t *testing.T) {
	// 2 electrons in 4 spin orbitals: only (0,1)→(2,3).
	if got := len(Doubles(4, 2)); got != 1 {
		t.Errorf("doubles = %d, want 1", got)
	}
}

func TestUCCSDParameterCount(t *testing.T) {
	u, err := NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumParameters() != 3 || u.NumQubits() != 4 {
		t.Errorf("params %d qubits %d", u.NumParameters(), u.NumQubits())
	}
}

func TestUCCSDZeroParamsIsHartreeFock(t *testing.T) {
	u, _ := NewUCCSD(6, 2)
	c := u.Circuit(make([]float64, u.NumParameters()))
	s := state.New(6, state.Options{})
	s.Run(c)
	// Zero-angle exponentials are identity (the RZ(0) remain but are
	// no-ops), so the state is the HF determinant |000011⟩ = index 3.
	probs := s.Probabilities()
	if math.Abs(probs[3]-1) > 1e-9 {
		t.Errorf("P(HF det) = %v", probs[3])
	}
}

func TestUCCSDPreservesParticleNumber(t *testing.T) {
	u, _ := NewUCCSD(4, 2)
	params := []float64{0.3, -0.2, 0.5}
	s := state.New(4, state.Options{})
	s.Run(u.Circuit(params))
	// Total number operator expectation must equal 2.
	num := pauli.NewOp()
	for q := 0; q < 4; q++ {
		num.Add(pauli.Identity, 0.5)
		z, _ := pauli.Single('Z', q)
		num.Add(z, -0.5)
	}
	if n := pauli.Expectation(s, num, pauli.ExpectationOptions{}); math.Abs(n-2) > 1e-9 {
		t.Errorf("⟨N⟩ = %v, want 2", n)
	}
	// And every nonzero amplitude lies in the 2-electron sector.
	for i, a := range s.Amplitudes() {
		if real(a)*real(a)+imag(a)*imag(a) > 1e-18 && bits.OnesCount64(uint64(i)) != 2 {
			t.Errorf("amplitude outside sector at %b", i)
		}
	}
}

func TestUCCSDGateCountGrowth(t *testing.T) {
	// Fig 1a mechanism: gate count grows steeply with qubit count.
	count := func(n, ne int) int {
		u, err := NewUCCSD(n, ne)
		if err != nil {
			t.Fatal(err)
		}
		return u.Circuit(make([]float64, u.NumParameters())).GateCount()
	}
	c4, c8, c12 := count(4, 2), count(8, 4), count(12, 6)
	if !(c4 < c8 && c8 < c12) {
		t.Fatalf("no growth: %d %d %d", c4, c8, c12)
	}
	if float64(c12)/float64(c8) < 2 {
		t.Errorf("growth too slow for UCCSD scaling: %d → %d", c8, c12)
	}
}

func TestUCCSDRejectsBadShapes(t *testing.T) {
	if _, err := NewUCCSD(4, 5); err == nil {
		t.Error("ne > n accepted")
	}
	u, _ := NewUCCSD(4, 2)
	defer func() {
		if recover() == nil {
			t.Error("wrong param length accepted")
		}
	}()
	u.Circuit([]float64{1})
}

func TestHardwareEfficientShape(t *testing.T) {
	h, err := NewHardwareEfficient(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumParameters() != 2*4*3 {
		t.Errorf("params %d", h.NumParameters())
	}
	c := h.Circuit(make([]float64, h.NumParameters()))
	st := c.Stats()
	if st.ByKind[gate.CX] != 2*3 {
		t.Errorf("CX count %d, want 6", st.ByKind[gate.CX])
	}
	s := state.New(4, state.Options{})
	s.Run(c)
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Error("HEA broke normalization")
	}
}

func TestHardwareEfficientReference(t *testing.T) {
	h, _ := NewHardwareEfficient(4, 1, 2)
	c := h.Circuit(make([]float64, h.NumParameters()))
	s := state.New(4, state.Options{})
	s.Run(c)
	// With zero parameters the rotations are identity but the CX ladder
	// still acts: |0011⟩ → CX(0,1) clears qubit 1 → basis index 1.
	if p := s.Probabilities()[1]; math.Abs(p-1) > 1e-9 {
		t.Errorf("reference prep wrong: %v", p)
	}
}

func TestPoolAndAdaptAnsatz(t *testing.T) {
	p, err := NewPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Errorf("pool size %d", p.Size())
	}
	a := NewAdaptAnsatz(4, 2)
	if a.NumParameters() != 0 {
		t.Error("fresh adapt ansatz has params")
	}
	a.Grow(p.Ops[0])
	a.Grow(p.Ops[2])
	c := a.Circuit([]float64{0.1, 0.2})
	s := state.New(4, state.Options{})
	s.Run(c)
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Error("adapt circuit broke norm")
	}
}

func TestQubitPoolShape(t *testing.T) {
	p, err := NewQubitPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() == 0 {
		t.Fatal("empty qubit pool")
	}
	seen := map[string]bool{}
	for _, ex := range p.Ops {
		if len(ex.Paulis) != 1 {
			t.Fatalf("%s: qubit pool op must be a single Pauli", ex.Label)
		}
		lbl := ex.Paulis[0].P.Label(4)
		if seen[lbl] {
			t.Fatalf("duplicate pool string %s", lbl)
		}
		seen[lbl] = true
		// Anti-Hermitian generator: purely imaginary coefficient.
		if real(ex.Paulis[0].Coeff) != 0 {
			t.Fatalf("%s: generator not anti-Hermitian", ex.Label)
		}
	}
	// Qubit pool is at least as large as the fermionic pool (strings fan
	// out of excitations).
	f, _ := NewPool(4, 2)
	if p.Size() < f.Size() {
		t.Errorf("qubit pool %d smaller than fermionic pool %d", p.Size(), f.Size())
	}
}

func TestQubitPoolExponentialsShallower(t *testing.T) {
	// One qubit-pool layer is a single Pauli exponential; one fermionic
	// double is eight of them.
	fp, _ := NewPool(6, 2)
	qp, _ := NewQubitPool(6, 2)
	deepest := func(p *Pool) int {
		mx := 0
		for _, ex := range p.Ops {
			c := circuit.New(6)
			ex.AppendExp(c, 0.3)
			if d := c.Stats().Depth; d > mx {
				mx = d
			}
		}
		return mx
	}
	if deepest(qp) >= deepest(fp) {
		t.Errorf("qubit layers (depth %d) not shallower than fermionic (depth %d)", deepest(qp), deepest(fp))
	}
}

func TestGeneralizedPoolLarger(t *testing.T) {
	n, ne := 6, 2
	plainS, plainD := len(Singles(n, ne)), len(Doubles(n, ne))
	genS, genD := len(GeneralizedSingles(n)), len(GeneralizedDoubles(n))
	if genS <= plainS {
		t.Errorf("generalized singles %d not larger than %d", genS, plainS)
	}
	if genD <= plainD {
		t.Errorf("generalized doubles %d not larger than %d", genD, plainD)
	}
}

func TestGeneralizedGeneratorsAntiHermitian(t *testing.T) {
	for _, ex := range GeneralizedSingles(4) {
		d := ex.Generator().ToDense(4)
		if !d.Add(d.Adjoint()).Equal(linalg.NewMatrix(16, 16), 1e-10) {
			t.Errorf("%s not anti-Hermitian", ex.Label)
		}
	}
	gd := GeneralizedDoubles(4)
	for _, ex := range gd {
		d := ex.Generator().ToDense(4)
		if !d.Add(d.Adjoint()).Equal(linalg.NewMatrix(16, 16), 1e-10) {
			t.Errorf("%s not anti-Hermitian", ex.Label)
		}
	}
}

func TestUCCGSDPreservesParticleNumber(t *testing.T) {
	u, err := NewUCCGSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, u.NumParameters())
	for i := range params {
		params[i] = 0.07 * float64(i%5-2)
	}
	s := state.New(4, state.Options{})
	s.Run(u.Circuit(params))
	for i, a := range s.Amplitudes() {
		if real(a)*real(a)+imag(a)*imag(a) > 1e-16 && bits.OnesCount64(uint64(i)) != 2 {
			t.Fatalf("amplitude outside the 2-electron sector at %04b", i)
		}
	}
}

func TestAnsatzInterfaceAccessors(t *testing.T) {
	u, _ := NewUCCSD(4, 2)
	if u.Reference().NumQubits != 4 || len(u.Operators()) != u.NumParameters() {
		t.Error("UCCSD accessors wrong")
	}
	a := NewAdaptAnsatz(4, 2)
	a.Grow(u.Operators()[0])
	if a.NumQubits() != 4 || len(a.Operators()) != 1 {
		t.Error("Adapt accessors wrong")
	}
	if a.Reference().GateCount() != 2 {
		t.Error("Adapt reference should prepare 2 electrons")
	}
	h, _ := NewHardwareEfficient(5, 1, 0)
	if h.NumQubits() != 5 {
		t.Error("HEA width")
	}
	p, _ := NewPool(4, 2)
	if p.Size() != len(p.Ops) {
		t.Error("pool size accessor")
	}
}
