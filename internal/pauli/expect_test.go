package pauli

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/state"
)

// randomState prepares a pseudo-random 4-qubit state.
func randomState(seed uint64) *state.State {
	rng := core.NewRNG(seed)
	c := circuit.New(4)
	for i := 0; i < 20; i++ {
		switch rng.Intn(5) {
		case 0:
			c.H(rng.Intn(4))
		case 1:
			c.RX(rng.Float64()*3, rng.Intn(4))
		case 2:
			c.RZ(rng.Float64()*3, rng.Intn(4))
		case 3:
			c.RY(rng.Float64()*3, rng.Intn(4))
		case 4:
			a, b := rng.Intn(4), rng.Intn(4)
			for b == a {
				b = rng.Intn(4)
			}
			c.CX(a, b)
		}
	}
	s := state.New(4, state.Options{Seed: seed + 1})
	s.Run(c)
	return s
}

func testHamiltonian() *Op {
	return NewOp().
		Add(Identity, -0.8).
		Add(MustParse("ZZII"), 0.17).
		Add(MustParse("XXII"), 0.12).
		Add(MustParse("IYYI"), -0.23).
		Add(MustParse("ZIZI"), 0.35).
		Add(MustParse("IXXY"), 0.05)
}

// denseExpectation computes ⟨ψ|H|ψ⟩ via the explicit matrix.
func denseExpectation(s *state.State, op *Op) float64 {
	amps := s.AmplitudesCopy()
	hv := op.ToSparse(s.NumQubits()).MulVec(amps)
	var acc complex128
	for i := range amps {
		acc += complex(real(amps[i]), -imag(amps[i])) * hv[i]
	}
	return real(acc)
}

func TestExpectationMatchesDense(t *testing.T) {
	op := testHamiltonian()
	for seed := uint64(1); seed <= 8; seed++ {
		s := randomState(seed)
		got := Expectation(s, op, ExpectationOptions{})
		want := denseExpectation(s, op)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: direct %v vs dense %v", seed, got, want)
		}
	}
}

func TestExpectationParallelMatchesSerial(t *testing.T) {
	op := testHamiltonian()
	s := randomState(3)
	serial := Expectation(s, op, ExpectationOptions{Workers: 1})
	par := Expectation(s, op, ExpectationOptions{Workers: 4})
	if math.Abs(serial-par) > 1e-10 {
		t.Errorf("parallel %v vs serial %v", par, serial)
	}
}

func TestExpectationStringKnownValues(t *testing.T) {
	// ⟨0|Z|0⟩ = 1, ⟨+|X|+⟩ = 1, ⟨0|X|0⟩ = 0.
	s := state.New(1, state.Options{})
	if e := expectationString(s, MustParse("Z")); !core.AlmostEqualC(e, 1, 1e-12) {
		t.Errorf("⟨0|Z|0⟩ = %v", e)
	}
	if e := expectationString(s, MustParse("X")); !core.AlmostEqualC(e, 0, 1e-12) {
		t.Errorf("⟨0|X|0⟩ = %v", e)
	}
	s.Run(circuit.New(1).H(0))
	if e := expectationString(s, MustParse("X")); !core.AlmostEqualC(e, 1, 1e-12) {
		t.Errorf("⟨+|X|+⟩ = %v", e)
	}
}

func TestExpectationYBasis(t *testing.T) {
	// |y+⟩ = S·H|0⟩ has ⟨Y⟩ = +1.
	s := state.New(1, state.Options{})
	s.Run(circuit.New(1).H(0).S(0))
	if e := expectationString(s, MustParse("Y")); !core.AlmostEqualC(e, 1, 1e-12) {
		t.Errorf("⟨y+|Y|y+⟩ = %v", e)
	}
}

func TestBasisRotationDiagonalizes(t *testing.T) {
	// For any string P and state ψ: ⟨ψ|P|ψ⟩ equals the Z-parity
	// expectation of the rotated state — validating the H / S†H rules of
	// paper §4.1.2.
	for _, lbl := range []string{"XIII", "IYII", "XYZI", "YYXZ"} {
		p := MustParse(lbl)
		for seed := uint64(11); seed <= 13; seed++ {
			s := randomState(seed)
			want := real(expectationString(s, p))
			rot := s.Clone()
			rot.Run(BasisRotation(p, 4))
			zOnly := String{Z: p.X | p.Z}
			got := real(expectationString(rot, zOnly))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s seed %d: rotated %v vs direct %v", lbl, seed, got, want)
			}
		}
	}
}

// GroupViaRotation is the rotate-then-read reference for one measurement
// group: rotate a copy of the state into the group's basis and sum each
// term's Z-parity expectation over the probabilities. Exported for the
// external test package (readout_test.go).
func GroupViaRotation(s *state.State, mb MeasurementBasis) float64 {
	work := s.Clone()
	work.Run(mb.Rotation)
	probs := work.Probabilities()
	total := 0.0
	for i, t := range mb.Terms {
		if t.P.IsIdentity() {
			continue
		}
		zm := mb.ZMasks[i]
		e := 0.0
		for idx, pr := range probs {
			if bits.OnesCount64(uint64(idx)&zm)%2 == 0 {
				e += pr
			} else {
				e -= pr
			}
		}
		total += real(t.Coeff) * e
	}
	return total
}

// expectationViaRotation computes ⟨H⟩ exactly but through the basis-
// rotation route the Rotated energy mode walks: the identity coefficient
// plus every QWC group's rotate-then-read contribution.
func expectationViaRotation(s *state.State, op *Op, n int) float64 {
	total := real(op.Coeff(Identity))
	for _, mb := range GroupQWC(op, n) {
		total += GroupViaRotation(s, mb)
	}
	return total
}

// expectationSampled estimates ⟨H⟩ by the traditional repeated-measurement
// workflow the paper contrasts against (§4.2.1): for every QWC group,
// rotate a copy of the state into the measurement basis, draw shots
// samples, and average parity eigenvalues. The identity term contributes
// its coefficient exactly.
func expectationSampled(s *state.State, op *Op, n, shots int) float64 {
	total := real(op.Coeff(Identity))
	for _, mb := range GroupQWC(op, n) {
		work := s.Clone()
		work.Run(mb.Rotation)
		counts := work.SampleCounts(shots)
		for i, t := range mb.Terms {
			if t.P.IsIdentity() {
				continue
			}
			zm := mb.ZMasks[i]
			acc := 0
			for outcome, c := range counts {
				if bits.OnesCount64(outcome&zm)%2 == 0 {
					acc += c
				} else {
					acc -= c
				}
			}
			total += real(t.Coeff) * float64(acc) / float64(shots)
		}
	}
	return total
}

func TestExpectationViaRotationMatchesDirect(t *testing.T) {
	op := testHamiltonian()
	for seed := uint64(21); seed <= 24; seed++ {
		s := randomState(seed)
		direct := Expectation(s, op, ExpectationOptions{})
		rotated := expectationViaRotation(s, op, 4)
		if math.Abs(direct-rotated) > 1e-9 {
			t.Errorf("seed %d: rotation route %v vs direct %v", seed, rotated, direct)
		}
	}
}

func TestExpectationSampledConverges(t *testing.T) {
	op := testHamiltonian()
	s := randomState(5)
	exact := Expectation(s, op, ExpectationOptions{})
	est := expectationSampled(s, op, 4, 60000)
	if math.Abs(est-exact) > 0.03 {
		t.Errorf("sampled %v vs exact %v", est, exact)
	}
}

func TestGroupQWCCoversAllTerms(t *testing.T) {
	op := testHamiltonian()
	groups := GroupQWC(op, 4)
	seen := 0
	for _, g := range groups {
		seen += len(g.Terms)
		// All members must pairwise qubit-wise commute.
		for i := range g.Terms {
			for j := i + 1; j < len(g.Terms); j++ {
				if !g.Terms[i].P.QubitwiseCommutes(g.Terms[j].P) {
					t.Errorf("group contains non-QWC pair %s, %s",
						g.Terms[i].P.Compact(), g.Terms[j].P.Compact())
				}
			}
		}
	}
	if seen != op.NumTerms() {
		t.Errorf("groups cover %d of %d terms", seen, op.NumTerms())
	}
	if len(groups) >= op.NumTerms() {
		t.Errorf("grouping achieved no reduction: %d groups for %d terms", len(groups), op.NumTerms())
	}
}

func TestVarianceVanishesOnEigenstate(t *testing.T) {
	// |00⟩ is an eigenstate of Z0 Z1.
	op := NewOp().Add(MustParse("ZZ"), 1.5)
	s := state.New(2, state.Options{})
	if v := Variance(s, op, ExpectationOptions{}); math.Abs(v) > 1e-10 {
		t.Errorf("variance on eigenstate: %v", v)
	}
	// |+0⟩ is not.
	s.Run(circuit.New(2).H(0))
	if v := Variance(s, op, ExpectationOptions{}); v < 0.1 {
		t.Errorf("variance should be positive: %v", v)
	}
}

func TestExpectationWidthGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for operator wider than state")
		}
	}()
	s := state.New(1, state.Options{})
	Expectation(s, NewOp().Add(MustParse("IZ"), 1), ExpectationOptions{})
}

// TestNewPlanFromTermsMatchesNewPlan: the term-list constructor must
// agree with the Op constructor on the same observable.
func TestNewPlanFromTermsMatchesNewPlan(t *testing.T) {
	s := randomState(11)
	h := testHamiltonian()
	a := NewPlan(h).Evaluate(s, ExpectationOptions{Workers: 1})
	b := NewPlanFromTerms(h.Terms()).Evaluate(s, ExpectationOptions{Workers: 1})
	if math.Abs(a-b) > 1e-13 {
		t.Fatalf("NewPlanFromTerms %.15f != NewPlan %.15f", b, a)
	}
}

// TestExpectationStrategyChoice: Expectation has one strategy whatever
// the term count, and it agrees with the per-term reference and the dense
// matrix on a one-term, a few-term and a molecule-sized observable.
func TestExpectationStrategyChoice(t *testing.T) {
	rng := core.NewRNG(0x1819)
	wide := randomOp(rng, 10, 1700)
	for wide.NumTerms() < 1819 { // water-12's term count; random draws collide
		wide.Add(String{X: rng.Uint64() & 1023, Z: rng.Uint64() & 1023}, complex(rng.Float64(), 0))
	}
	for _, tc := range []struct {
		h *Op
		s *state.State
	}{
		{NewOp().Add(MustParse("IXXY"), 0.05), randomState(3)},
		{testHamiltonian(), randomState(3)},
		{wide, randomWideState(rng, 10, state.Options{})},
	} {
		want := denseExpectation(tc.s, tc.h)
		for name, got := range map[string]float64{
			"ExpectationNaive": ExpectationNaive(tc.s, tc.h),
			"Expectation":      Expectation(tc.s, tc.h, ExpectationOptions{Workers: 1}),
		} {
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("%d terms, %s: %v want %v", tc.h.NumTerms(), name, got, want)
			}
		}
	}
}
