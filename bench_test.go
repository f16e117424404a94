package vqesim

// Benchmark harness: one benchmark per figure of the paper's evaluation
// plus the performance/ablation benches called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The paper-style series (full 12–30 qubit sweeps, printed as rows) are
// produced by cmd/benchfigs; these benches regenerate each figure's
// headline numbers as custom metrics so regressions show up in CI.

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/fermion"
	"repro/internal/noise"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/runspec"
	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/trotter"
	"repro/internal/vqe"
)

// uccsdCircuit builds the UCCSD ansatz circuit used across the Figure
// benches (8 electrons as in the downfolded-water family).
func uccsdCircuit(b *testing.B, qubits, electrons int) *circuit.Circuit {
	b.Helper()
	u, err := ansatz.NewUCCSD(qubits, electrons)
	if err != nil {
		b.Fatal(err)
	}
	return u.Circuit(make([]float64, u.NumParameters()))
}

// BenchmarkFig1aUCCSDGateCount regenerates Figure 1a: UCCSD ansatz gate
// count versus qubit count. The paper's curve reaches ~2.5M gates at 30
// qubits; shape (quartic growth) is the reproduction target.
func BenchmarkFig1aUCCSDGateCount(b *testing.B) {
	for _, n := range []int{12, 16, 20, 24} {
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			var gates int
			for i := 0; i < b.N; i++ {
				gates = uccsdCircuit(b, n, 8).GateCount()
			}
			b.ReportMetric(float64(gates), "gates")
		})
	}
}

// BenchmarkFig1bPauliTermCount regenerates Figure 1b: Pauli terms in the
// downfolded H2O-like observable versus qubit count (paper: ~30k at 30
// qubits; this model is calibrated to ≈27k).
func BenchmarkFig1bPauliTermCount(b *testing.B) {
	for _, orb := range []int{6, 8, 10, 12} {
		b.Run(fmt.Sprintf("qubits=%d", 2*orb), func(b *testing.B) {
			var terms int
			for i := 0; i < b.N; i++ {
				terms = chem.QubitHamiltonian(chem.WaterLikeScaled(orb)).NumTerms()
			}
			b.ReportMetric(float64(terms), "terms")
		})
	}
}

// BenchmarkFig1cStateVectorMemory regenerates Figure 1c: state-vector
// bytes versus qubit count (16 B per amplitude; 16 GiB at 30 qubits). The
// small sizes also measure real allocation cost.
func BenchmarkFig1cStateVectorMemory(b *testing.B) {
	for _, n := range []int{12, 16, 20, 24, 30} {
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			bytes := state.MemoryBytes(n)
			if n <= 22 {
				for i := 0; i < b.N; i++ {
					s := state.New(n, state.Options{})
					_ = s
				}
			}
			b.ReportMetric(float64(bytes)/(1<<30), "GiB")
		})
	}
}

// BenchmarkFig3CachingGateCount regenerates Figure 3: gates per VQE energy
// evaluation, non-caching versus caching execution. The paper reports 3–5
// orders of magnitude savings growing with system size.
func BenchmarkFig3CachingGateCount(b *testing.B) {
	for _, orb := range []int{6, 8, 10, 12} {
		n := 2 * orb
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			var gc vqe.GateCost
			for i := 0; i < b.N; i++ {
				h := chem.QubitHamiltonian(chem.WaterLikeScaled(orb))
				gc = vqe.CostModel(h, uccsdCircuit(b, n, 8).GateCount())
			}
			b.ReportMetric(float64(gc.NonCachingTotal), "noncaching_gates")
			b.ReportMetric(float64(gc.CachingTotal), "caching_gates")
			b.ReportMetric(gc.SavingsFactor(), "savings_x")
		})
	}
}

// BenchmarkFig4GateFusion regenerates Figure 4: UCCSD gate counts before
// and after fusion for 4/6/8-qubit circuits (paper: 221→68, 2283→954,
// 10809→5208, i.e. >50% reduction).
func BenchmarkFig4GateFusion(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			c := uccsdCircuit(b, n, n/2)
			var fused *circuit.Circuit
			for i := 0; i < b.N; i++ {
				fused = circuit.Fuse(c, 2)
			}
			orig := c.GateCount()
			after := fused.GateCount()
			b.ReportMetric(float64(orig), "original_gates")
			b.ReportMetric(float64(after), "fused_gates")
			b.ReportMetric(100*(1-float64(after)/float64(orig)), "reduction_%")
		})
	}
}

// BenchmarkFig5AdaptVQE regenerates Figure 5: Adapt-VQE on the 12-qubit
// downfolded-water model converging below 1 mHa (paper: ~16 iterations;
// this model: ~12).
func BenchmarkFig5AdaptVQE(b *testing.B) {
	m := chem.WaterLike()
	h := chem.QubitHamiltonian(m)
	fci, err := chem.FCI(m)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := ansatz.NewPool(12, 8)
	if err != nil {
		b.Fatal(err)
	}
	var iters int
	var finalErr float64
	for i := 0; i < b.N; i++ {
		res, err := vqe.Adapt(h, pool, 12, 8, vqe.AdaptOptions{
			MaxIterations: 25,
			Reference:     fci.Energy,
			EnergyTol:     core.ChemicalAccuracy,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("Adapt-VQE did not converge")
		}
		iters = len(res.History)
		finalErr = math.Abs(res.Energy - fci.Energy)
	}
	b.ReportMetric(float64(iters), "iterations_to_1mHa")
	b.ReportMetric(finalErr*1000, "final_error_mHa")
}

// adapt12Spec is the benchmark's Fig. 5 workload (bench/vqebench adaptBody).
const adapt12Spec = `{"molecule":{"kind":"water"},"algorithm":"adapt","backend":{"workers":2}}`

// BenchmarkAdaptWaterSolve times the adapt12 solve end to end, as the
// benchmark harness runs it: molecule, observable, FCI reference and the
// twelve Adapt iterations through Run (runspec.Run), allocations
// reported. Pair it with scripts/benchpair.sh for before/after ratios.
func BenchmarkAdaptWaterSolve(b *testing.B) {
	spec, err := runspec.Parse([]byte(adapt12Spec))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), spec, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.History) != 12 || !(res.ErrorVsExact < core.ChemicalAccuracy) {
			b.Fatalf("%d Adapt steps, error %g", len(res.History), res.ErrorVsExact)
		}
	}
}

// BenchmarkValueAndGradientWater times one L-BFGS evaluation — energy and
// adjoint gradient at the same θ — on the 12-operator ansatz that solve
// ends with. An infinite gradient tolerance makes MinimizeLBFGS return
// after exactly that one pair.
func BenchmarkValueAndGradientWater(b *testing.B) {
	m := chem.WaterLike()
	h := chem.QubitHamiltonian(m)
	pool, err := ansatz.NewPool(12, 8)
	if err != nil {
		b.Fatal(err)
	}
	byLabel := map[string]ansatz.Excitation{}
	for _, ex := range pool.Ops {
		byLabel[ex.Label] = ex
	}
	a := ansatz.NewAdaptAnsatz(12, 8)
	for _, label := range []string{"s(6->8)", "s(7->9)", "d(6,7->8,9)", "s(3->9)", "s(2->8)", "s(7->11)",
		"s(6->10)", "d(6,7->10,11)", "s(3->11)", "s(2->10)", "d(6,7->8,11)", "d(6,7->9,10)"} {
		ex, ok := byLabel[label]
		if !ok {
			b.Fatalf("pool has no operator %s", label)
		}
		a.Grow(ex)
	}
	theta := make([]float64, a.NumParameters())
	for k := range theta {
		theta[k] = 0.02 * float64(k+1)
	}
	drv, err := vqe.New(h, a, vqe.Options{Mode: vqe.Direct, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	once := opt.LBFGSOptions{GradTol: math.Inf(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := drv.MinimizeLBFGS(context.Background(), theta, once, vqe.ResilienceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Optimizer.Evaluations != 1 {
			b.Fatalf("%d evaluations, want the one pair", res.Optimizer.Evaluations)
		}
	}
}

// BenchmarkDirectVsSampling times one VQE energy evaluation under the four
// execution strategies the paper compares (§4.1–4.2): direct expectation,
// exact rotated readout with and without the post-ansatz cache, and shot
// sampling.
func BenchmarkDirectVsSampling(b *testing.B) {
	m := chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 4, NumElectrons: 4, Seed: 9})
	h := chem.QubitHamiltonian(m)
	u, err := ansatz.NewUCCSD(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	params := make([]float64, u.NumParameters())
	for i := range params {
		params[i] = 0.02 * float64(i%5)
	}
	cases := []struct {
		name string
		opts vqe.Options
	}{
		{"direct", vqe.Options{Mode: vqe.Direct}},
		{"rotated-cached", vqe.Options{Mode: vqe.Rotated, Caching: true}},
		{"rotated-noncached", vqe.Options{Mode: vqe.Rotated, Caching: false}},
		{"sampled-8192", vqe.Options{Mode: vqe.Sampled, Caching: true, Shots: 8192}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			drv, err := vqe.New(h, u, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drv.Energy(params)
			}
			st := drv.Stats()
			b.ReportMetric(float64(st.GatesApplied)/float64(b.N), "gates/eval")
		})
	}
}

// BenchmarkParallelScaling measures goroutine-parallel gate application
// (the stand-in for the paper's GPU-core parallelism) at several worker
// counts.
func BenchmarkParallelScaling(b *testing.B) {
	const n = 18
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := state.New(n, state.Options{Workers: workers, ParallelThreshold: 1024})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(c)
			}
		})
	}
}

// BenchmarkClusterBackend exercises the simulated multi-node backend,
// reporting communication volume alongside wall time.
func BenchmarkClusterBackend(b *testing.B) {
	const n = 16
	c := circuit.New(n)
	c.H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var moved uint64
			for i := 0; i < b.N; i++ {
				cl, err := cluster.New(n, ranks)
				if err != nil {
					b.Fatal(err)
				}
				cl.Run(c)
				moved = cl.Stats().BytesTransferred
			}
			b.ReportMetric(float64(moved)/(1<<20), "MiB_moved")
		})
	}
}

// BenchmarkFusionSpeedup measures end-to-end simulation time of the same
// UCCSD circuit unfused versus fused (the payoff of Figure 4).
func BenchmarkFusionSpeedup(b *testing.B) {
	const n = 14
	c := uccsdCircuit(b, n, 4)
	fused := circuit.Fuse(c, 2)
	b.Run("unfused", func(b *testing.B) {
		s := state.New(n, state.Options{Workers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(c)
		}
	})
	b.Run("fused", func(b *testing.B) {
		s := state.New(n, state.Options{Workers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(fused)
		}
	})
}

// wide20Workload is the benchmark's wide20 instance built in process: the
// 20-qubit Hubbard chain (10 sites, 2 electrons) under Jordan–Wigner, its
// batched plan, and the one-layer hardware-efficient circuit at a seeded
// θ drawn from U(−π, π) (at θ = 0 the transpiler cancels the circuit).
func wide20Workload(tb testing.TB) (*circuit.Circuit, *pauli.Plan) {
	tb.Helper()
	m, err := runspec.BuildMolecule(runspec.MoleculeSpec{Kind: "hubbard", Sites: 10, Electrons: 2})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := runspec.BuildObservable(m, "jw")
	if err != nil {
		tb.Fatal(err)
	}
	a, err := ansatz.NewHardwareEfficient(m.NumSpinOrbitals(), 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rng := core.NewRNG(20)
	theta := make([]float64, a.NumParameters())
	for i := range theta {
		theta[i] = (2*rng.Float64() - 1) * math.Pi
	}
	return a.Circuit(theta), pauli.NewPlan(h)
}

// BenchmarkWide20Evaluation times the parts of one wide20 energy
// evaluation on two workers, the way the driver runs it with fusion on:
// exec is RunOptimized (compile and fused execution) from |0…0⟩,
// evaluate is Plan.Evaluate on the prepared state, both is one after
// the other. evaluate-workers=1 is evaluate on one worker: its ratio to
// evaluate says whether the sweep is bound by compute (≈ 2× on two
// cores) or by memory bandwidth (≈ 1×). Pair it with scripts/benchpair.sh
// for before/after ratios.
func BenchmarkWide20Evaluation(b *testing.B) {
	c, plan := wide20Workload(b)
	s := state.New(c.NumQubits, state.Options{Workers: 2})
	opts := pauli.ExpectationOptions{Workers: 2}
	s.RunOptimized(c)
	b.Run("exec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ResetZero()
			s.RunOptimized(c)
		}
	})
	b.Run("evaluate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Evaluate(s, opts)
		}
	})
	b.Run("evaluate-workers=1", func(b *testing.B) {
		serial := pauli.ExpectationOptions{Workers: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Evaluate(s, serial)
		}
	})
	b.Run("both", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ResetZero()
			s.RunOptimized(c)
			plan.Evaluate(s, opts)
		}
	})
}

// BenchmarkHEAFusion times one fused execution of the hardware-efficient
// ansatz from |0…0⟩ — RunOptimized, compile included, serial — at 4–16
// qubits and 1 or 3 layers, θ seeded from U(−π, π): the shallow and deep
// shapes wide20 sits between. Pair it with scripts/benchpair.sh for
// before/after ratios.
func BenchmarkHEAFusion(b *testing.B) {
	for _, n := range []int{4, 6, 8, 12, 16} {
		for _, layers := range []int{1, 3} {
			b.Run(fmt.Sprintf("qubits=%d/layers=%d", n, layers), func(b *testing.B) {
				a, err := ansatz.NewHardwareEfficient(n, layers, 0)
				if err != nil {
					b.Fatal(err)
				}
				rng := core.NewRNG(uint64(100*n + layers))
				theta := make([]float64, a.NumParameters())
				for i := range theta {
					theta[i] = (2*rng.Float64() - 1) * math.Pi
				}
				c := a.Circuit(theta)
				s := state.New(n, state.Options{Workers: 1})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.ResetZero()
					s.RunOptimized(c)
				}
			})
		}
	}
}

// BenchmarkFusionWidth ablates the fusion window (paper §4.3's design
// choice to cap blocks at two qubits): width-1 versus width-2.
func BenchmarkFusionWidth(b *testing.B) {
	c := uccsdCircuit(b, 10, 4)
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			var count int
			for i := 0; i < b.N; i++ {
				count = circuit.Fuse(c, width).GateCount()
			}
			b.ReportMetric(float64(count), "fused_gates")
		})
	}
}

// BenchmarkBatchedExpectation compares per-term evaluation (one amplitude
// sweep per Pauli string) against the batched X-mask-grouped engine (one
// sweep per group) across term counts and qubit widths — the optimization
// targeting the paper's Fig 1b regime where term count, not qubit count,
// dominates energy-evaluation wall clock. Reported metrics: observable
// size (terms), sweep count (xgroups), and the batched-vs-naive energy
// deviation (must stay below 1e-10).
func BenchmarkBatchedExpectation(b *testing.B) {
	cases := []struct {
		name   string
		qubits int
		orb    int
	}{
		{"qubits=16/terms~3k", 16, 8},
		{"qubits=18/terms~5k", 18, 9},
	}
	for _, tc := range cases {
		h := chem.QubitHamiltonian(chem.WaterLikeScaled(tc.orb))
		s := state.New(tc.qubits, state.Options{})
		prep := circuit.New(tc.qubits)
		for q := 0; q < tc.orb; q++ {
			prep.X(q)
		}
		for q := 0; q < tc.qubits; q++ {
			prep.RY(0.07*float64(q+1), q)
		}
		for q := 0; q+1 < tc.qubits; q++ {
			prep.CX(q, q+1)
		}
		s.Run(prep)
		plan := pauli.NewPlan(h)
		naive := pauli.ExpectationNaive(s, h)
		batched := plan.Evaluate(s, pauli.ExpectationOptions{Workers: 1})
		if math.Abs(naive-batched) > 1e-10 {
			b.Fatalf("batched energy deviates from naive: %v vs %v", batched, naive)
		}
		for _, eng := range []string{"per-term", "batched"} {
			b.Run(tc.name+"/"+eng, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if eng == "batched" {
						plan.Evaluate(s, pauli.ExpectationOptions{Workers: 1})
					} else {
						pauli.ExpectationNaive(s, h)
					}
				}
				b.ReportMetric(float64(h.NumTerms()), "terms")
				b.ReportMetric(float64(plan.NumGroups()), "xgroups")
				b.ReportMetric(math.Abs(naive-batched), "abs_deviation")
			})
		}
	}
}

// BenchmarkTelemetryOverhead prices the telemetry instrumentation on the
// 16-qubit batched expectation sweep: the same evaluation is timed with
// recording disabled (the production fast path — one atomic load and a
// branch per instrumented event) and enabled. The enabled_overhead_%
// metric is the full recording cost; the disabled path is strictly
// cheaper, which bounds the "telemetry off" tax well under the 2% budget.
func BenchmarkTelemetryOverhead(b *testing.B) {
	h := chem.QubitHamiltonian(chem.WaterLikeScaled(8)) // 16 qubits
	s := state.New(16, state.Options{Workers: 1})
	prep := circuit.New(16)
	for q := 0; q < 8; q++ {
		prep.X(q)
	}
	for q := 0; q < 16; q++ {
		prep.RY(0.07*float64(q+1), q)
	}
	for q := 0; q+1 < 16; q++ {
		prep.CX(q, q+1)
	}
	s.Run(prep)
	plan := pauli.NewPlan(h)
	opts := pauli.ExpectationOptions{Workers: 1}
	sweeps := func(k int) time.Duration {
		start := time.Now()
		for i := 0; i < k; i++ {
			plan.Evaluate(s, opts)
		}
		return time.Since(start)
	}
	sweeps(2) // warm caches before timing either mode

	const perMode = 4
	var disabled, enabled time.Duration
	telemetry.Disable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		telemetry.Disable()
		disabled += sweeps(perMode)
		telemetry.Enable()
		enabled += sweeps(perMode)
	}
	b.StopTimer()
	telemetry.Disable()
	telemetry.Reset()

	total := perMode * b.N
	b.ReportMetric(float64(disabled.Nanoseconds())/float64(total), "disabled_ns/sweep")
	b.ReportMetric(float64(enabled.Nanoseconds())/float64(total), "enabled_ns/sweep")
	b.ReportMetric(100*(float64(enabled)-float64(disabled))/float64(disabled), "enabled_overhead_%")
}

// BenchmarkBatchedExpectationParallel sweeps the worker-pool width of the
// batched engine (padded per-chunk accumulator blocks) on the 16-qubit
// molecular observable.
func BenchmarkBatchedExpectationParallel(b *testing.B) {
	h := chem.QubitHamiltonian(chem.WaterLikeScaled(8))
	plan := pauli.NewPlan(h)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := state.New(16, state.Options{Workers: workers})
			s.Run(uccsdCircuit(b, 16, 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Evaluate(s, pauli.ExpectationOptions{Workers: workers})
			}
		})
	}
}

// BenchmarkExpectationWorkers sweeps the worker count of the direct
// expectation reduction (paper §4.2.3 parallelization).
func BenchmarkExpectationWorkers(b *testing.B) {
	const n = 16
	m := chem.Synthetic(chem.SyntheticOptions{NumOrbitals: n / 2, NumElectrons: 4, Seed: 3, Threshold: 1e-3})
	h := chem.QubitHamiltonian(m)
	s := state.New(n, state.Options{})
	prep := circuit.New(n)
	for q := 0; q < 4; q++ {
		prep.X(q)
	}
	for q := 0; q < n; q++ {
		prep.RY(0.1*float64(q+1), q)
	}
	s.Run(prep)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pauli.Expectation(s, h, pauli.ExpectationOptions{Workers: workers})
			}
		})
	}
}

// BenchmarkDensityNoise measures the density-matrix backend with and
// without a depolarizing model (DM-Sim substrate ablation).
func BenchmarkDensityNoise(b *testing.B) {
	const n = 6
	c := circuit.New(n).H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	b.Run("noiseless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := density.New(n)
			if err := m.Run(c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("depolarizing", func(b *testing.B) {
		model := density.DepolarizingModel(0.001, 0.01)
		for i := 0; i < b.N; i++ {
			m := density.New(n)
			if err := m.Run(c, model); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVQEEndToEnd times the complete H2 workflow (the quickstart
// path) so facade-level regressions are visible.
func BenchmarkVQEEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), &RunSpec{}, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.ErrorVsExact > 1e-5 {
			b.Fatalf("H2 VQE failed to converge: %v", res.ErrorVsExact)
		}
	}
}

// BenchmarkEncodingWeights compares Pauli-string locality of the
// Jordan–Wigner and Bravyi–Kitaev mappings on the H2O-like Hamiltonian
// (extension: alternative fermion-to-qubit encodings).
func BenchmarkEncodingWeights(b *testing.B) {
	m := chem.WaterLikeScaled(8) // 16 qubits
	fh := chem.FermionicHamiltonian(m)
	for _, mk := range []struct {
		name string
		make func(int) (*fermion.Encoding, error)
	}{
		{"jordan-wigner", fermion.JordanWignerEncoding},
		{"bravyi-kitaev", fermion.BravyiKitaevEncoding},
	} {
		b.Run(mk.name, func(b *testing.B) {
			var avg float64
			var mx int
			for i := 0; i < b.N; i++ {
				enc, err := mk.make(16)
				if err != nil {
					b.Fatal(err)
				}
				q, err := enc.Transform(fh)
				if err != nil {
					b.Fatal(err)
				}
				avg = fermion.AverageWeight(q)
				mx = fermion.MaxWeight(q)
			}
			b.ReportMetric(avg, "avg_weight")
			b.ReportMetric(float64(mx), "max_weight")
		})
	}
}

// BenchmarkTrotterOrders measures the error/cost trade-off between
// first- and second-order product formulas on a transverse-field Ising
// model.
func BenchmarkTrotterOrders(b *testing.B) {
	h := pauli.NewOp()
	const n = 6
	for i := 0; i+1 < n; i++ {
		h.Add(pauli.String{Z: 3 << uint(i)}, -1)
	}
	for i := 0; i < n; i++ {
		h.Add(pauli.String{X: 1 << uint(i)}, -0.8)
	}
	for _, order := range []trotter.Order{trotter.First, trotter.Second} {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			var errVal float64
			for i := 0; i < b.N; i++ {
				var err error
				errVal, err = trotter.Error(h, n, nil, trotter.Options{Time: 1, Steps: 8, Order: order})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(errVal, "l2_error")
		})
	}
}

// BenchmarkTrajectoryNoise measures trajectory-averaged noisy expectation
// throughput (the scalable alternative to the density-matrix backend).
func BenchmarkTrajectoryNoise(b *testing.B) {
	c := circuit.New(8).H(0)
	for q := 0; q+1 < 8; q++ {
		c.CX(q, q+1)
	}
	obs := pauli.NewOp().Add(pauli.String{Z: 0x81}, 1) // Z0·Z7
	for i := 0; i < b.N; i++ {
		if _, err := noise.Expectation(c, obs, noise.Model{P1: 0.01, P2: 0.02},
			noise.Options{Trajectories: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTapering measures Z₂ qubit tapering of molecular Hamiltonians
// (extension: symmetry-based resource reduction composing with
// downfolding).
func BenchmarkTapering(b *testing.B) {
	m := chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 4, NumElectrons: 4, Seed: 2})
	h := chem.QubitHamiltonian(m)
	n := m.NumSpinOrbitals()
	var reduced int
	for i := 0; i < b.N; i++ {
		res, err := chem.TaperedHamiltonian(m)
		if err != nil {
			b.Fatal(err)
		}
		reduced = res.NumQubits
	}
	b.ReportMetric(float64(n), "qubits_before")
	b.ReportMetric(float64(reduced), "qubits_after")
	_ = h
}
