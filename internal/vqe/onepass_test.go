package vqe

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// waterAdaptAnsatz is the 12-operator ansatz the Fig. 5 solve ends with
// (runspec.TestAdaptWaterTrajectoryPinned), at a θ of that magnitude.
func waterAdaptAnsatz(t testing.TB) (*pauli.Op, *ansatz.AdaptAnsatz, []float64) {
	t.Helper()
	m := chem.WaterLike()
	pool, err := ansatz.NewPool(12, m.NumElectrons)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ansatz.Excitation{}
	for _, ex := range pool.Ops {
		byLabel[ex.Label] = ex
	}
	a := ansatz.NewAdaptAnsatz(12, m.NumElectrons)
	for _, label := range []string{"s(6->8)", "s(7->9)", "d(6,7->8,9)", "s(3->9)", "s(2->8)", "s(7->11)",
		"s(6->10)", "d(6,7->10,11)", "s(3->11)", "s(2->10)", "d(6,7->8,11)", "d(6,7->9,10)"} {
		ex, ok := byLabel[label]
		if !ok {
			t.Fatalf("pool has no operator %s", label)
		}
		a.Grow(ex)
	}
	rng := core.NewRNG(12)
	theta := make([]float64, a.NumParameters())
	for k := range theta {
		theta[k] = 0.1 * rng.NormFloat64()
	}
	return chem.QubitHamiltonian(m), a, theta
}

// TestValueAndGradientOnePass: the energy the L-BFGS objective returns is
// Plan.Evaluate's on the 2ⁿ state the block scatters into, the gradient
// that consumes its buffers is the derivative of that energy and the same
// as one computed from scratch, one preparation is one sweep per operator,
// and the pair allocates nothing (TestSubspaceRouteCounts pins the same at
// the end of the Fig. 5 solve).
func TestValueAndGradientOnePass(t *testing.T) {
	h, a, theta := waterAdaptAnsatz(t)
	d, err := New(h, a, Options{Mode: Direct, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := len(theta)

	gatesBefore := d.Stats().GatesApplied
	e := d.forward(theta)
	if got, want := d.Stats().GatesApplied-gatesBefore, uint64(d.ref.GateCount()+m); got != want {
		t.Errorf("one preparation applied %d gates, want %d reference gates + one sweep per operator = %d",
			got, d.ref.GateCount(), want)
	}
	s := state.New(d.n, state.Options{Workers: 2})
	d.sub.space.Scatter(s.Amplitudes(), d.phi)
	if want := d.plan.Evaluate(s, pauli.ExpectationOptions{Workers: 2}); math.Abs(e-want) > 1e-12 {
		t.Errorf("Re⟨φ|Hφ⟩ = %.15f, Plan.Evaluate = %.15f", e, want)
	}
	if want := d.Energy(theta); math.Abs(e-want) > 1e-12 {
		t.Errorf("one-pass energy %.15f, Energy %.15f", e, want)
	}

	// One pass: forward, then the gradient at the same θ.
	d.forward(theta)
	prepared := d.Stats().AnsatzExecutions
	g := make([]float64, m)
	d.adjointGradient(theta, g)
	if d.Stats().AnsatzExecutions != prepared {
		t.Error("gradient at the θ just evaluated prepared the ansatz again")
	}
	fd := make([]float64, m)
	opt.FiniteDifference(d.Energy, 1e-5)(theta, fd)
	for k := range g {
		if math.Abs(g[k]-fd[k]) > 1e-7 {
			t.Errorf("g[%d] = %v, central difference %v", k, g[k], fd[k])
		}
	}
	// Two calls: a gradient with nothing, or something stale, in the
	// buffers runs its own forward pass and lands on the same numbers.
	fresh, _ := New(h, a, Options{Mode: Direct, Workers: 2})
	g2 := make([]float64, m)
	fresh.adjointGradient(theta, g2)
	other := append([]float64(nil), theta...)
	other[3] += 0.25
	d.forward(other)
	g3 := make([]float64, m)
	d.adjointGradient(theta, g3)
	for k := range g {
		if g2[k] != g[k] || g3[k] != g[k] {
			t.Errorf("g[%d]: one pass %v, fresh driver %v, after a stale forward %v", k, g[k], g2[k], g3[k])
		}
	}

	// Allocation: none — no state, circuit or vector per evaluation.
	pair := func() {
		d.forward(theta)
		d.adjointGradient(theta, g)
	}
	pair()
	if allocs := testing.AllocsPerRun(20, pair); allocs != 0 {
		t.Errorf("one evaluate+gradient pair allocates %v objects, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if perPair, vector := (after.TotalAlloc-before.TotalAlloc)/20, uint64(16*len(d.phi)); perPair >= vector {
		t.Errorf("one pair allocates %d bytes: room for a %d-byte amplitude vector", perPair, vector)
	}
}

// TestAdaptCompilesHamiltonianOnce: an Adapt solve builds the plan of H
// once, for every pool scan and inner driver, and compiles no generator —
// the pool's constructor did. pauli.plan.build counts every compilation
// of either kind.
func TestAdaptCompilesHamiltonianOnce(t *testing.T) {
	h := chem.QubitHamiltonian(chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 17}))
	pool, err := ansatz.NewPool(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	telemetry.Reset()
	res, err := Adapt(h, pool, 6, 2, AdaptOptions{MaxIterations: 3, Reference: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Fatalf("only %d Adapt iterations: not a test of reuse", len(res.History))
	}
	if builds := telemetry.Capture().Timers["pauli.plan.build"].Count; builds != 1 {
		t.Errorf("%d plans compiled during a %d-iteration Adapt solve, want 1 (H, once)", builds, len(res.History))
	}
}

// TestExactRoutesAgreeWithCircuitOnH2: every exact in-process route —
// direct, rotated with and without the post-ansatz cache, fusion on and
// off — prepares the ansatz with pair sweeps in its block and must land on
// the energy of the gate-ladder circuit the backends run.
func TestExactRoutesAgreeWithCircuitOnH2(t *testing.T) {
	h, u, _ := h2Setup(t)
	params := []float64{0.07, -0.21, 0.13}
	want := pauli.Expectation(stateFor(u, params), h, pauli.ExpectationOptions{})
	for _, o := range []Options{
		{Mode: Direct},
		{Mode: Direct, Transpile: true},
		{Mode: Rotated},
		{Mode: Rotated, Caching: true},
		{Mode: Rotated, Transpile: true},
		{Mode: Rotated, Caching: true, Transpile: true},
		{Mode: Rotated, PerTermMeasurement: true},
	} {
		d, err := New(h, u, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Energy(params); math.Abs(got-want) > 1e-10 {
			t.Errorf("%+v: energy %.13f, circuit route %.13f", o, got, want)
		}
	}
}
