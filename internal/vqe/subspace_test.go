package vqe

import (
	"errors"
	"math"
	"math/cmplx"
	"runtime"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/pauli"
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
// 2ⁿ pair brackets start chunking their sums over the pool, the block's
// pool scan is the exported 2ⁿ one (PoolGradients on the scattered state)
// with the zeros left out — the same coefficients multiplied and summed in
// the same order — so the two agree to the bit, not just to the 1e-10 the
// recorded values are held to.
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
// gradient of UCCSD on the 16-qubit water-like model, in a block of 4 900
// amplitudes against 65 536.
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

// TestExponentialDriversHaveABlock: every in-process driver of an
// exponential ansatz — each fallback and grid case, in every mode, and an
// Adapt solve's scans and inner drivers — runs on one compiled block, and
// a 2ⁿ state exists only where a mode rotates or samples one. A reference
// that is not X gates alone, and a generator with a diagonal string, are
// rejected with core.ErrInvalidArgument.
func TestExponentialDriversHaveABlock(t *testing.T) {
	h, cases := fallbackCases(t)
	for _, fc := range append(cases, gridCases(t)...) {
		if _, exponential := fc.a.(Exponential); fc.a != nil && (!exponential || fc.opts.Backend != nil) {
			continue
		}
		withTelemetry(t)
		if fc.a == nil {
			if _, err := Adapt(h, fc.pool, 4, 2, AdaptOptions{MaxIterations: 2, Reference: math.NaN()}); err != nil {
				t.Fatal(err)
			}
		} else {
			obs := h
			if fc.h != nil {
				obs = fc.h
			}
			d, err := New(obs, fc.a, fc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if d.sub == nil {
				t.Errorf("%s: driver has no block", fc.name)
			}
			if wantSim := fc.opts.Mode != Direct; (d.sim != nil) != wantSim {
				t.Errorf("%s: 2ⁿ simulator allocated %v, want %v", fc.name, d.sim != nil, wantSim)
			}
		}
		if got := telemetry.Capture().Counters["vqe.subspace.compiles"]; got != 1 {
			t.Errorf("%s: %d blocks compiled, want 1", fc.name, got)
		}
	}

	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	nonX := &expAnsatz{n: 4, ref: circuit.New(4).X(0).X(1).H(3), ops: u.Operators()}
	for _, mode := range []EnergyMode{Direct, Rotated, Sampled} {
		if _, err := New(h, nonX, Options{Mode: mode}); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("%v: a reference with an H gate: %v, want ErrInvalidArgument", mode, err)
		}
	}
	zz := []pauli.Term{{Coeff: 0.5i, P: pauli.MustParse("ZZII")}}
	if _, err := pauli.NewGenerator(zz); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("a diagonal generator: %v, want ErrInvalidArgument", err)
	}
	diagonal := &expAnsatz{n: 4, ref: u.Reference(), ops: append(u.Operators()[:3:3], ansatz.Excitation{Label: "i·ZZ", Paulis: zz})}
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, core.ErrInvalidArgument) {
				t.Errorf("a driver over a diagonal generator: recovered %v, want ErrInvalidArgument", err)
			}
		}()
		_, _ = New(h, diagonal, Options{})
	}()
}

// TestBlockEnergiesRespectFCI: UCCSD on H2 under every encoding, in Direct,
// Rotated with and without the post-ansatz cache, and Sampled mode, and an
// Adapt solve (Jordan–Wigner; it runs Direct whatever the mode), prepare
// in a block and never answer below the exact ground state — Sampled not
// by more than five standard deviations of its shot noise.
func TestBlockEnergiesRespectFCI(t *testing.T) {
	fci, err := chem.FCI(chem.H2())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range encodings {
		h, u, _ := h2Encoded(t, e.mk)
		for _, o := range []Options{{Mode: Direct}, {Mode: Rotated}, {Mode: Rotated, Caching: true}, {Mode: Sampled, Shots: 2048, Seed: 7}} {
			d, err := New(h, u, o)
			if err != nil {
				t.Fatal(err)
			}
			if d.sub == nil {
				t.Errorf("%s %+v: driver has no block", e.name, o)
			}
			floor := fci.Energy - 1e-9
			if o.Mode == Sampled {
				floor = fci.Energy - 5*shotNoiseBound(d)
			}
			if got := d.Energy(seededTheta(u.NumParameters(), 47)); got < floor {
				t.Errorf("%s %+v: energy %.12f below %.12f (FCI %.12f)", e.name, o, got, floor, fci.Energy)
			}
		}
	}
	pool, err := ansatz.NewPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	withTelemetry(t)
	res, err := Adapt(chem.QubitHamiltonian(chem.H2()), pool, 4, 2, AdaptOptions{MaxIterations: 3, Reference: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if compiles := telemetry.Capture().Counters["vqe.subspace.compiles"]; compiles != 1 {
		t.Errorf("adapt: %d blocks compiled, want 1", compiles)
	}
	if res.Energy < fci.Energy-1e-9 {
		t.Errorf("adapt: energy %.12f below the exact ground state %.12f", res.Energy, fci.Energy)
	}
}

// shotNoiseBound bounds the standard deviation of a Sampled driver's
// energy: each group's estimate is a mean over Shots outcomes of a
// variable no larger in magnitude than Σ|c| over the group's terms.
func shotNoiseBound(d *Driver) float64 {
	variance := 0.0
	for _, mb := range d.groups {
		w := 0.0
		for _, term := range mb.Terms {
			if !term.P.IsIdentity() {
				w += cmplx.Abs(term.Coeff)
			}
		}
		variance += w * w / float64(d.opts.Shots)
	}
	return math.Sqrt(variance)
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
	before := baselineGoroutines()
	res, err := Adapt(h, pool, 12, water.NumElectrons, AdaptOptions{Reference: fci.Energy, EnergyTol: core.ChemicalAccuracy, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 || res.TotalStats.EnergyEvaluations != 161 {
		t.Errorf("%d operators, %d evaluations; the solve is pinned at 12 and 161", len(res.History), res.TotalStats.EnergyEvaluations)
	}
	snap := telemetry.Capture()
	for name, want := range map[string]int64{"vqe.subspace.compiles": 1} {
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

// TestAdaptFallbackSharesOnePool: a 12-qubit Adapt solve over a pool that
// breaks every symmetry runs in a block as large as the whole space — past
// tuning.ReduceParallel rows, so H·φ is split over workers — and its scans
// and every inner driver share that block's one worker pool, not one per
// outer iteration, which stops on return.
func TestAdaptFallbackSharesOnePool(t *testing.T) {
	if testing.Short() {
		t.Skip("12-qubit Adapt iterations on a 4 096-state block")
	}
	water := chem.WaterLike()
	pool, err := ansatz.NewPool(12, water.NumElectrons)
	if err != nil {
		t.Fatal(err)
	}
	withTelemetry(t)
	before := baselineGoroutines()
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
	if compiles, dim := snap.Counters["vqe.subspace.compiles"], snap.Gauges["vqe.subspace.dim"]; compiles != 1 || dim != 1<<12 {
		t.Errorf("%d blocks of %d states, want one of all %d", compiles, dim, 1<<12)
	}
	if peak > before+2 {
		t.Errorf("%d goroutines during the solve against %d before: more than one 2-worker pool", peak, before)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("%d goroutines after the solve, %d before", after, before)
	}
}

// baselineGoroutines collects the worker pools earlier tests left to their
// finalizers and waits until the goroutine count stops falling, so that a
// count taken after a solve differs from it only by what the solve left.
func baselineGoroutines() int {
	runtime.GC()
	runtime.GC()
	n := runtime.NumGoroutine()
	for still := 0; still < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
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
