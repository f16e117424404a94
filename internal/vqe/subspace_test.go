package vqe

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/telemetry"
)

func withTelemetry(t *testing.T) {
	t.Helper()
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	telemetry.Reset()
}

// TestSubspaceRouteBitEqualBelowGateParallel: up to the size at which the
// 2ⁿ pair sweeps start chunking their bracket sums over the pool, the
// subspace route is the 2ⁿ route with the zeros left out — the same
// coefficients multiplied and summed in the same order — so the two agree
// to the bit, not just to the 1e-10 the recorded values are held to.
func TestSubspaceRouteBitEqualBelowGateParallel(t *testing.T) {
	for _, tc := range routeCases(t) {
		dense, sub := evalRoute(t, tc, false), evalRoute(t, tc, true)
		if math.Float64bits(dense.Energy) != math.Float64bits(sub.Energy) {
			t.Errorf("%s: energy %v on the 2ⁿ route, %v on the subspace route", tc.name, dense.Energy, sub.Energy)
		}
		for k := range dense.Gradient {
			if dense.Gradient[k] != sub.Gradient[k] {
				t.Errorf("%s: gradient[%d] %v vs %v", tc.name, k, dense.Gradient[k], sub.Gradient[k])
			}
		}
		for k := range dense.PoolGradients {
			if dense.PoolGradients[k] != sub.PoolGradients[k] {
				t.Errorf("%s: pool gradient[%d] %v vs %v", tc.name, k, dense.PoolGradients[k], sub.PoolGradients[k])
			}
		}
	}
}

// TestSubspaceRouteSixteenQubits: one forward pass and one adjoint
// gradient of UCCSD on the 16-qubit water-like model, 4 900 amplitudes
// against 65 536, on both routes.
func TestSubspaceRouteSixteenQubits(t *testing.T) {
	if testing.Short() {
		t.Skip("16-qubit Hamiltonian and UCCSD construction")
	}
	m := chem.WaterLikeScaled(8)
	u, err := ansatz.NewUCCSD(16, m.NumElectrons)
	if err != nil {
		t.Fatal(err)
	}
	tc := routeCase{name: "water16", h: chem.QubitHamiltonian(m), a: u, theta: seededTheta(u.NumParameters(), 53)}
	for k := range tc.theta {
		tc.theta[k] *= 0.25
	}
	withTelemetry(t)
	dense, sub := evalRoute(t, tc, false), evalRoute(t, tc, true)
	if dim := telemetry.Capture().Gauges["vqe.subspace.dim"]; dim != 4900 {
		t.Errorf("block has %d states, want C(8,4)² = 4900", dim)
	}
	if math.Abs(dense.Energy-sub.Energy) > 1e-10 {
		t.Errorf("energy %.13f on the 2ⁿ route, %.13f on the subspace route", dense.Energy, sub.Energy)
	}
	for k := range dense.Gradient {
		if math.Abs(dense.Gradient[k]-sub.Gradient[k]) > 1e-9 {
			t.Errorf("gradient[%d] %v vs %v", k, dense.Gradient[k], sub.Gradient[k])
		}
	}
}

// TestFallbacksStayOnFullSpace: each excluded run is excluded at
// construction, with no block compiled, and the in-process exponential ones
// are counted.
func TestFallbacksStayOnFullSpace(t *testing.T) {
	h, cases := fallbackCases(t)
	for _, fc := range cases {
		withTelemetry(t)
		wantFallback := int64(0)
		if fc.a == nil {
			res, err := Adapt(h, fc.pool, 4, 2, AdaptOptions{MaxIterations: 2, Reference: math.NaN()})
			if err != nil {
				t.Fatal(err)
			}
			wantFallback = int64(len(res.History)) // one inner driver per iteration
		} else {
			d, err := New(h, fc.a, fc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if d.sub != nil {
				t.Errorf("%s: driver took the subspace route", fc.name)
			}
			if _, exponential := fc.a.(Exponential); exponential && fc.opts.Backend == nil {
				wantFallback = 1
			}
		}
		snap := telemetry.Capture()
		if got := snap.Counters["vqe.subspace.compiles"]; got != 0 {
			t.Errorf("%s: %d blocks compiled, want 0", fc.name, got)
		}
		if got := snap.Counters["vqe.subspace.fallbacks"]; got != wantFallback {
			t.Errorf("%s: %d fallbacks counted, want %d", fc.name, got, wantFallback)
		}
	}
}

// TestSubspaceRouteCounts pins what the Fig. 5 solve does on the subspace
// route: one block per solve — 225 of 4 096 amplitudes, 20 925 coefficients
// per H·φ against 1 819 terms × 4 096 — no driver left on the 2ⁿ route, no
// worker goroutine outliving the solve, the applied-gate tally of the 2ⁿ
// route, and nothing allocated per evaluation.
func TestSubspaceRouteCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-qubit Adapt solve")
	}
	water := chem.WaterLike()
	fci, err := chem.FCI(water)
	if err != nil {
		t.Fatal(err)
	}
	h := chem.QubitHamiltonian(water)
	pool, err := ansatz.NewPool(12, water.NumElectrons)
	if err != nil {
		t.Fatal(err)
	}
	withTelemetry(t)
	before := runtime.NumGoroutine()
	res, err := Adapt(h, pool, 12, water.NumElectrons, AdaptOptions{Reference: fci.Energy, EnergyTol: core.ChemicalAccuracy, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 || res.TotalStats.EnergyEvaluations != 161 {
		t.Errorf("%d operators, %d evaluations; the solve is pinned at 12 and 161", len(res.History), res.TotalStats.EnergyEvaluations)
	}
	snap := telemetry.Capture()
	for name, want := range map[string]int64{"vqe.subspace.compiles": 1, "vqe.subspace.fallbacks": 0} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{"vqe.subspace.dim": 225, "vqe.subspace.nnz": 20925} {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Timers["pauli.plan.build"].Count; got != 1 {
		t.Errorf("%d plans compiled, want 1", got)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("%d goroutines after the solve, %d before", after, before)
	}

	_, a, theta := waterAdaptAnsatz(t)
	d, err := New(h, a, Options{Mode: Direct, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.sim != nil {
		t.Error("a driver on the subspace route allocated its 2ⁿ simulator at construction")
	}
	g := make([]float64, len(theta))
	pair := func() {
		d.forward(theta)
		d.adjointGradient(theta, g)
	}
	pair()
	if got, want := d.Stats().GatesApplied, uint64(d.ref.GateCount()+2*len(theta)); got != want {
		t.Errorf("one evaluate+gradient pair counted %d gates, want %d reference gates + a forward and a backward sweep per operator = %d",
			got, d.ref.GateCount(), want)
	}
	if allocs := testing.AllocsPerRun(20, pair); allocs != 0 {
		t.Errorf("one evaluate+gradient pair allocates %v objects on the subspace route, want 0", allocs)
	}
	if d.sim != nil {
		t.Error("forward and adjointGradient allocated the 2ⁿ simulator")
	}
}

// TestAdaptFallbackSharesOnePool: with no block to work in, a 12-qubit
// Adapt solve runs its scans and every inner driver on one worker pool —
// not one per outer iteration — and stops it on return.
func TestAdaptFallbackSharesOnePool(t *testing.T) {
	if testing.Short() {
		t.Skip("12-qubit Adapt iterations on the 2ⁿ route")
	}
	water := chem.WaterLike()
	pool, err := ansatz.NewPool(12, water.NumElectrons)
	if err != nil {
		t.Fatal(err)
	}
	withTelemetry(t)
	before := runtime.NumGoroutine()
	peak := 0
	res, err := Adapt(chem.QubitHamiltonian(water), symmetryBreakingPool(t, pool, 12), 12, water.NumElectrons, AdaptOptions{
		MaxIterations: 3, Reference: math.NaN(), Workers: 2,
		Observer: func(AdaptIteration) error {
			peak = max(peak, runtime.NumGoroutine())
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 3 {
		t.Fatalf("%d iterations, want 3", len(res.History))
	}
	snap := telemetry.Capture()
	if snap.Counters["vqe.subspace.compiles"] != 0 || snap.Counters["vqe.subspace.fallbacks"] != 3 {
		t.Errorf("compiles %d fallbacks %d, want a solve on the 2ⁿ route: 0 and 3",
			snap.Counters["vqe.subspace.compiles"], snap.Counters["vqe.subspace.fallbacks"])
	}
	if peak > before+2 {
		t.Errorf("%d goroutines during the solve against %d before: more than one 2-worker pool", peak, before)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("%d goroutines after the solve, %d before", after, before)
	}
}

// settledGoroutines waits for closed worker pools to wind down.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n != want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
