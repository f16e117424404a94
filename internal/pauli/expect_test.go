package pauli

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/kernel/tuning"
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
	if e := ExpectationString(s, MustParse("Z")); !core.AlmostEqualC(e, 1, 1e-12) {
		t.Errorf("⟨0|Z|0⟩ = %v", e)
	}
	if e := ExpectationString(s, MustParse("X")); !core.AlmostEqualC(e, 0, 1e-12) {
		t.Errorf("⟨0|X|0⟩ = %v", e)
	}
	s.Run(circuit.New(1).H(0))
	if e := ExpectationString(s, MustParse("X")); !core.AlmostEqualC(e, 1, 1e-12) {
		t.Errorf("⟨+|X|+⟩ = %v", e)
	}
}

func TestExpectationYBasis(t *testing.T) {
	// |y+⟩ = S·H|0⟩ has ⟨Y⟩ = +1.
	s := state.New(1, state.Options{})
	s.Run(circuit.New(1).H(0).S(0))
	if e := ExpectationString(s, MustParse("Y")); !core.AlmostEqualC(e, 1, 1e-12) {
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
			want := real(ExpectationString(s, p))
			rot := s.Clone()
			rot.Run(BasisRotation(p, 4))
			zOnly := String{Z: p.X | p.Z}
			got := real(ExpectationString(rot, zOnly))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s seed %d: rotated %v vs direct %v", lbl, seed, got, want)
			}
		}
	}
}

func TestExpectationViaRotationMatchesDirect(t *testing.T) {
	op := testHamiltonian()
	for seed := uint64(21); seed <= 24; seed++ {
		s := randomState(seed)
		direct := Expectation(s, op, ExpectationOptions{})
		rotated := ExpectationViaRotation(s, op, 4)
		if math.Abs(direct-rotated) > 1e-9 {
			t.Errorf("seed %d: rotation route %v vs direct %v", seed, rotated, direct)
		}
	}
}

func TestExpectationSampledConverges(t *testing.T) {
	op := testHamiltonian()
	s := randomState(5)
	exact := Expectation(s, op, ExpectationOptions{})
	est := ExpectationSampled(s, op, 4, 60000)
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

// TestGroupPlanMatchesRotatedSweep pins the basis-change fusion
// equivalence: summing every QWC group's batched plan on the raw state
// (plus the identity coefficient) must equal the rotate-then-read
// evaluation to 1e-12.
func TestGroupPlanMatchesRotatedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		s := randomState(seed)
		h := testHamiltonian()
		want := ExpectationViaRotation(s, h, 4)
		got := real(h.Coeff(Identity))
		for _, mb := range GroupQWC(h, 4) {
			got += mb.Plan().Evaluate(s, ExpectationOptions{Workers: 1})
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d: group plans %.15f != rotated %.15f", seed, got, want)
		}
	}
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

// TestExpectationStrategyChoice: both evaluators Expectation chooses
// between, called directly, agree with the dense matrix on an observable
// on each side of the NaiveMaxTerms constant — so which one the term
// count selects can never change the value.
func TestExpectationStrategyChoice(t *testing.T) {
	s := randomState(3)
	oneTerm := NewOp().Add(MustParse("IXXY"), 0.05)
	if oneTerm.NumTerms() > tuning.NaiveMaxTerms || testHamiltonian().NumTerms() <= tuning.NaiveMaxTerms {
		t.Fatalf("observables no longer straddle NaiveMaxTerms = %d", tuning.NaiveMaxTerms)
	}
	for _, h := range []*Op{oneTerm, testHamiltonian()} {
		want := denseExpectation(s, h)
		opts := ExpectationOptions{Workers: 1}
		for name, got := range map[string]float64{
			"ExpectationNaive": ExpectationNaive(s, h, opts),
			"Plan.Evaluate":    NewPlan(h).Evaluate(s, opts),
			"Expectation":      Expectation(s, h, opts),
		} {
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("%d terms, %s: %v want %v", h.NumTerms(), name, got, want)
			}
		}
	}
}
