package noise

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/pauli"
	"repro/internal/telemetry"
)

func bell() *circuit.Circuit { return circuit.New(2).H(0).CX(0, 1) }

func zz() *pauli.Op { return pauli.NewOp().Add(pauli.MustParse("ZZ"), 1) }

func TestZeroNoiseIsExact(t *testing.T) {
	res, err := Expectation(bell(), zz(), Model{}, Options{Trajectories: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-1) > 1e-12 || res.StdErr > 1e-12 {
		t.Errorf("noiseless ⟨ZZ⟩ = %v ± %v", res.Mean, res.StdErr)
	}
	if res.MeanErrors != 0 {
		t.Error("errors injected with p=0")
	}
}

func TestTrajectoryAverageMatchesDensityMatrix(t *testing.T) {
	// The trajectory unravelling of per-qubit depolarizing noise must
	// converge to the exact density-matrix result.
	p1, p2 := 0.02, 0.06
	c := bell()
	dm := density.New(2)
	if err := dm.Run(c, density.DepolarizingModel(p1, p2)); err != nil {
		t.Fatal(err)
	}
	exact := dm.Expectation(zz())

	res, err := Expectation(c, zz(), Model{P1: p1, P2: p2}, Options{Trajectories: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 5σ statistical window plus a small systematic floor.
	tol := 5*res.StdErr + 0.01
	if math.Abs(res.Mean-exact) > tol {
		t.Errorf("trajectory %v ± %v vs density-matrix %v", res.Mean, res.StdErr, exact)
	}
}

func TestNoiseReducesCorrelator(t *testing.T) {
	res, err := Expectation(bell(), zz(), Model{P1: 0.05, P2: 0.1}, Options{Trajectories: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean >= 1 {
		t.Errorf("noise did not reduce ⟨ZZ⟩: %v", res.Mean)
	}
	if res.Mean < 0.5 {
		t.Errorf("⟨ZZ⟩ degraded implausibly: %v", res.Mean)
	}
	if res.MeanErrors <= 0 {
		t.Error("no errors injected")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	opts := Options{Trajectories: 50, Seed: 9}
	m := Model{P1: 0.05, P2: 0.05}
	a, err := Expectation(bell(), zz(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expectation(bell(), zz(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean {
		t.Errorf("same seed gave %v and %v", a.Mean, b.Mean)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	m := Model{P1: 0.05, P2: 0.05}
	a, _ := Expectation(bell(), zz(), m, Options{Trajectories: 60, Seed: 4, Workers: 1})
	b, _ := Expectation(bell(), zz(), m, Options{Trajectories: 60, Seed: 4, Workers: 8})
	if a.Mean != b.Mean {
		t.Errorf("worker count changed result: %v vs %v", a.Mean, b.Mean)
	}
}

// TestPlanCompiledOncePerExpectation: the observable's plan is compiled
// once per estimate, not once per trajectory.
func TestPlanCompiledOncePerExpectation(t *testing.T) {
	telemetry.Enable()
	telemetry.Reset()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	if _, err := Expectation(bell(), zz(), Model{P1: 0.05, P2: 0.05}, Options{Trajectories: 50, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if builds := telemetry.Capture().Timers["pauli.plan.build"].Count; builds != 1 {
		t.Errorf("50 trajectories compiled %d plans, want 1", builds)
	}
}

func TestRunTrajectoryNormPreserved(t *testing.T) {
	rng := core.NewRNG(3)
	s, _ := RunTrajectory(bell(), Model{P1: 0.3, P2: 0.3}, rng, 1)
	if math.Abs(s.Norm()-1) > 1e-10 {
		t.Errorf("norm %v", s.Norm())
	}
}

func TestValidation(t *testing.T) {
	if _, err := Expectation(bell(), zz(), Model{P1: -0.1}, Options{}); err == nil {
		t.Error("negative probability accepted")
	}
	wide := pauli.NewOp().Add(pauli.MustParse("IIZ"), 1)
	if _, err := Expectation(bell(), wide, Model{}, Options{}); err == nil {
		t.Error("wide observable accepted")
	}
}

func TestErrorRateScalesWithProbability(t *testing.T) {
	m1, _ := Expectation(bell(), zz(), Model{P1: 0.02, P2: 0.02}, Options{Trajectories: 500, Seed: 7})
	m2, _ := Expectation(bell(), zz(), Model{P1: 0.2, P2: 0.2}, Options{Trajectories: 500, Seed: 7})
	if m2.MeanErrors <= m1.MeanErrors {
		t.Errorf("error counts did not scale: %v vs %v", m1.MeanErrors, m2.MeanErrors)
	}
}
