// Command benchfigs regenerates every figure of the paper's evaluation as
// textual data series (one row per point), matching the quantities plotted
// in Wang et al., SC-W 2023.
//
//	benchfigs -fig 1a        # UCCSD gate count vs qubits
//	benchfigs -fig 1b        # Pauli terms vs qubits
//	benchfigs -fig 1c        # state-vector memory vs qubits
//	benchfigs -fig 3         # caching vs non-caching gate count
//	benchfigs -fig 4         # gate fusion table
//	benchfigs -fig 5         # Adapt-VQE convergence
//	benchfigs -fig expect    # batched vs per-term expectation speedup
//	benchfigs -fig fusion    # fused vs unfused wall-clock speedup
//	benchfigs -fig all       # everything
//	benchfigs -fig all -fast # reduced sweeps for quick smoke runs
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/cmd/internal/runreport"
	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/linalg"
	"repro/internal/pauli"
	"repro/internal/qpe"
	"repro/internal/state"
	"repro/internal/vqe"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1a, 1b, 1c, 3, 4, 5, expect, fusion, all")
	fast := flag.Bool("fast", false, "reduced sweeps (smoke mode)")
	failBelow := flag.Float64("fail-below", 0,
		"exit non-zero if the expect figure's minimum batched-vs-per-term speedup falls below this factor (0 = no gate)")
	obsFlags := runreport.AddFlags(flag.CommandLine)
	flag.Parse()

	run := func(name string, f func(bool)) {
		if *fig == "all" || *fig == name {
			start := time.Now()
			f(*fast)
			fmt.Printf("# figure %s done in %.1fs\n\n", name, time.Since(start).Seconds())
		}
	}
	known := map[string]bool{"1a": true, "1b": true, "1c": true, "3": true, "4": true, "5": true, "expect": true, "fusion": true, "extras": true, "all": true}
	if !known[*fig] {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}

	var err error
	rep, err = runreport.Start("benchfigs", obsFlags)
	if err != nil {
		fail(err)
	}

	run("1a", fig1a)
	run("1b", fig1b)
	run("1c", fig1c)
	run("3", fig3)
	run("4", fig4)
	run("5", fig5)
	run("expect", figExpect)
	run("fusion", figFusion)
	run("extras", extras)

	if !math.IsInf(minSpeedup, 1) {
		rep.Set("expect.min_speedup_x", minSpeedup)
	}
	if !math.IsInf(minFusionSpeedup, 1) {
		rep.Set("fusion.min_speedup_x", minFusionSpeedup)
	}
	if err := rep.Finish(); err != nil {
		fail(err)
	}
	if *failBelow > 0 {
		if math.IsInf(minSpeedup, 1) {
			fmt.Fprintln(os.Stderr, "benchfigs: -fail-below set but the expect figure did not run")
			os.Exit(1)
		}
		if minSpeedup < *failBelow {
			fmt.Fprintf(os.Stderr, "benchfigs: batched expectation speedup %.2fx below required %.2fx\n",
				minSpeedup, *failBelow)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchfigs: speedup gate passed (min %.2fx >= %.2fx)\n", minSpeedup, *failBelow)
	}
}

// rep is the process run report; minSpeedup tracks the smallest
// batched-vs-per-term speedup figExpect observed (the -fail-below gate),
// minFusionSpeedup the smallest fused-vs-unfused speedup figFusion
// observed (reported, not gated).
var (
	rep              *runreport.Run
	minSpeedup       = math.Inf(1)
	minFusionSpeedup = math.Inf(1)
)

// sweep returns the qubit counts for the scaling figures.
func sweep(fast bool) []int {
	if fast {
		return []int{12, 16, 20}
	}
	return []int{12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
}

func uccsdGates(qubits int) (params, gates int) {
	u, err := ansatz.NewUCCSD(qubits, 8)
	if err != nil {
		fail(err)
	}
	c := u.Circuit(make([]float64, u.NumParameters()))
	return u.NumParameters(), c.GateCount()
}

func fig1a(fast bool) {
	fmt.Println("# Figure 1a — Number of gates in UCCSD ansatz vs number of qubits")
	fmt.Println("# paper: rises to ~2.5e6 gates at 30 qubits (quartic growth)")
	fmt.Println("qubits\tparameters\tgates")
	for _, n := range sweep(fast) {
		p, g := uccsdGates(n)
		fmt.Printf("%d\t%d\t%d\n", n, p, g)
	}
}

func fig1b(fast bool) {
	fmt.Println("# Figure 1b — Pauli terms in the downfolded H2O-like observable vs qubits")
	fmt.Println("# paper: ~30000 terms at 30 qubits for H2O/cc-pV5Z downfolded observables")
	fmt.Println("qubits\tterms")
	for _, n := range sweep(fast) {
		h := chem.QubitHamiltonian(chem.WaterLikeScaled(n / 2))
		fmt.Printf("%d\t%d\n", n, h.NumTerms())
	}
}

func fig1c(fast bool) {
	fmt.Println("# Figure 1c — State-vector memory vs qubits (16 B/amplitude)")
	fmt.Println("# paper: exponential growth, ~16 GB at 30 qubits")
	fmt.Println("qubits\tbytes\tGiB")
	for _, n := range sweep(fast) {
		bytes := state.MemoryBytes(n)
		fmt.Printf("%d\t%d\t%.3f\n", n, bytes, float64(bytes)/(1<<30))
	}
}

func fig3(fast bool) {
	fmt.Println("# Figure 3 — Gates per VQE energy evaluation: non-caching vs caching")
	fmt.Println("# paper: caching saves 3–5 orders of magnitude, growing with size")
	fmt.Println("qubits\tterms\tansatz_gates\tnoncaching\tcaching\tsavings_x")
	for _, n := range sweep(fast) {
		h := chem.QubitHamiltonian(chem.WaterLikeScaled(n / 2))
		_, gates := uccsdGates(n)
		gc := vqe.CostModel(h, gates)
		fmt.Printf("%d\t%d\t%d\t%d\t%d\t%.0f\n",
			n, gc.NumTerms, gates, gc.NonCachingTotal, gc.CachingTotal, gc.SavingsFactor())
	}
}

func fig4(bool) {
	fmt.Println("# Figure 4 — Gate counts for UCCSD circuits before/after fusion")
	fmt.Println("# paper: 221→68 (4q), 2283→954 (6q), 10809→5208 (8q): >50% reduction")
	fmt.Println("qubits\toriginal\tfused\treduction_%")
	for _, n := range []int{4, 6, 8} {
		u, err := ansatz.NewUCCSD(n, n/2)
		if err != nil {
			fail(err)
		}
		c := u.Circuit(make([]float64, u.NumParameters()))
		f := circuit.Fuse(c, 2)
		orig, fused := c.GateCount(), f.GateCount()
		fmt.Printf("%d\t%d\t%d\t%.1f\n", n, orig, fused, 100*(1-float64(fused)/float64(orig)))
	}
}

func fig5(fast bool) {
	fmt.Println("# Figure 5 — Adapt-VQE convergence on the 12-qubit downfolded H2O-like model")
	fmt.Println("# paper: reaches 1 mHa chemical accuracy around iteration 16")
	maxIter := 25
	if fast {
		maxIter = 6
	}
	m := chem.WaterLike()
	res, fci, _, _, _ := adaptSolve(m, 12, maxIter)
	fmt.Printf("# FCI reference energy: %.8f   HF energy: %.8f\n", fci, chem.HartreeFockEnergy(m))
	fmt.Println("iteration\toperator\tenergy\tdelta_E_Ha\tdepth\tgates")
	for _, it := range res.History {
		fmt.Printf("%d\t%s\t%.8f\t%.6f\t%d\t%d\n",
			it.Iteration, it.Operator, it.Energy, it.ErrorVsRef, it.CircuitDepth, it.GateCount)
	}
	status := "converged to chemical accuracy"
	if !res.Converged {
		status = "NOT converged"
	}
	fmt.Printf("# %s after %d iterations (final |ΔE| = %.3f mHa)\n",
		status, len(res.History), 1000*math.Abs(res.Energy-fci))
	if fast {
		return
	}

	// Past 12 qubits: the solve keeps amplitudes only for the block of
	// basis states H and the pool can reach from Hartree–Fock, so its cost
	// follows |S| and the coefficients of H inside it, not 2ⁿ.
	fmt.Println("#\n# The same solve on the 16-qubit model (chem.WaterLikeScaled(8)), in the reachable subspace")
	fmt.Println("qubits\tamplitudes_2^n\tsubspace_dim\tH_nonzeros\tsolve_s\titerations\tevaluations\tfinal_delta_E_mHa\tconverged")
	m16 := chem.WaterLikeScaled(8)
	res16, fci16, seconds, op16, pool16 := adaptSolve(m16, 16, 100)
	h16 := pauli.NewPlan(op16)
	plans := []*pauli.Plan{h16}
	for _, ex := range pool16.Ops {
		plans = append(plans, ex.Plan())
	}
	block := pauli.NewSubspace(1<<uint(m16.NumElectrons)-1, plans...)
	hBlock, err := h16.Restrict(block)
	if err != nil {
		fail(err)
	}
	fmt.Printf("16\t%d\t%d\t%d\t%.2f\t%d\t%d\t%.3f\t%v\n", 1<<16, block.Dim(), hBlock.NNZ(), seconds,
		len(res16.History), res16.TotalStats.EnergyEvaluations, 1000*math.Abs(res16.Energy-fci16), res16.Converged)
}

// adaptSolve runs Adapt-VQE with the singles+doubles pool on molecule m to
// chemical accuracy against its own FCI energy and returns the result, that
// energy, the seconds the solve took, and the observable and pool it ran on.
func adaptSolve(m *chem.MolecularData, n, maxIter int) (*vqe.AdaptResult, float64, float64, *pauli.Op, *ansatz.Pool) {
	h := chem.QubitHamiltonian(m)
	fci, err := chem.FCI(m)
	if err != nil {
		fail(err)
	}
	pool, err := ansatz.NewPool(n, m.NumElectrons)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	res, err := vqe.Adapt(h, pool, n, m.NumElectrons, vqe.AdaptOptions{
		MaxIterations: maxIter,
		Reference:     fci.Energy,
		EnergyTol:     core.ChemicalAccuracy,
	})
	if err != nil {
		fail(err)
	}
	return res, fci.Energy, time.Since(start).Seconds(), h, pool
}

// figExpect measures the batched multi-term expectation engine against the
// naive per-term evaluator on downfolded H2O-like observables: same
// energies, one amplitude sweep per X-mask group instead of one per term.
func figExpect(fast bool) {
	fmt.Println("# Expectation engine — batched X-mask grouping vs per-term sweeps (serial)")
	fmt.Println("# one O(2^n) pass per X-mask group scores every term of the group at once")
	fmt.Println("qubits\tterms\txgroups\tper_term_ms\tbatched_ms\tspeedup_x\tabs_dev")
	widths := []int{12, 14, 16, 18}
	if fast {
		widths = []int{10, 12}
	}
	for _, n := range widths {
		h := chem.QubitHamiltonian(chem.WaterLikeScaled(n / 2))
		c := circuit.New(n)
		for q := 0; q < n; q++ {
			c.X(q)
			c.RY(0.1*float64(q+1), q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
		s := state.New(n, state.Options{Workers: 1})
		s.Run(c)
		serialOpts := pauli.ExpectationOptions{Workers: 1}

		t0 := time.Now()
		naive := pauli.ExpectationNaive(s, h)
		perTerm := time.Since(t0)

		plan := pauli.NewPlan(h)
		t0 = time.Now()
		batched := plan.Evaluate(s, serialOpts)
		batchedT := time.Since(t0)

		speedup := perTerm.Seconds() / batchedT.Seconds()
		if speedup < minSpeedup {
			minSpeedup = speedup
		}
		rep.SetQubits(n)
		rep.SetTerms(plan.NumTerms())
		fmt.Printf("%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1e\n",
			n, plan.NumTerms(), plan.NumGroups(),
			float64(perTerm.Microseconds())/1000, float64(batchedT.Microseconds())/1000,
			speedup, math.Abs(naive-batched))
	}
}

// fusionAnsatz builds the deep hardware-efficient ansatz the fusion
// benchmark runs: logical 1q rotations lowered to the native
// RZ·SX·RZ·SX·RZ Euler chain (the shape compiled VQE circuits actually
// have) plus CX-entangler blocks, parameters drawn from the seed.
func fusionAnsatz(n, layers int, seed uint64) *circuit.Circuit {
	rng := core.NewRNG(seed)
	theta := func() float64 { return 2 * math.Pi * (rng.Float64() - 0.5) }
	c := circuit.New(n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RZ(theta(), q)
			c.SX(q)
			c.RZ(theta(), q)
			c.SX(q)
			c.RZ(theta(), q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
			c.RZ(theta(), q+1)
			c.CX(q, q+1)
		}
	}
	return c
}

// figFusion measures the runtime payoff of gate fusion (the paper's
// Figure 4 shows the gate-count reduction; this shows the wall clock it
// buys): the same deep ansatz executed gate-at-a-time vs through
// CompileFused + RunFused, compile time included — a VQE loop pays the
// compile on every parameter set, so excluding it would overstate the
// win. Serial execution isolates the memory-pass reduction from pool
// scheduling effects.
func figFusion(fast bool) {
	fmt.Println("# Gate fusion — fused vs unfused wall clock on a deep native-gate HEA ansatz")
	fmt.Println("# compile time is included in the fused column (paid per VQE energy evaluation)")
	fmt.Println("qubits\tgates\tfused_gates\treduction_%\tunfused_ms\tfused_ms\tspeedup_x\tabs_dev")
	widths := []int{12, 14, 16}
	reps := 3
	if fast {
		widths = []int{12}
	}
	for _, n := range widths {
		c := fusionAnsatz(n, 8, uint64(41+n))

		var ref *state.State
		unfused := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			s := state.New(n, state.Options{Workers: 1})
			t0 := time.Now()
			s.Run(c)
			if d := time.Since(t0); d < unfused {
				unfused = d
			}
			ref = s
		}

		var prog *state.FusedProgram
		var got *state.State
		fused := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			s := state.New(n, state.Options{Workers: 1})
			t0 := time.Now()
			p := state.CompileFused(c)
			s.RunFused(p)
			if d := time.Since(t0); d < fused {
				fused = d
			}
			prog, got = p, s
		}

		dev := 0.0
		ra, ga := ref.Amplitudes(), got.Amplitudes()
		for i := range ra {
			if d := cmplxAbs(ra[i] - ga[i]); d > dev {
				dev = d
			}
		}
		speedup := unfused.Seconds() / fused.Seconds()
		if speedup < minFusionSpeedup {
			minFusionSpeedup = speedup
		}
		rep.SetQubits(n)
		fmt.Printf("%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%.1e\n",
			n, prog.GatesBefore(), prog.GatesAfter(),
			100*(1-float64(prog.GatesAfter())/float64(prog.GatesBefore())),
			float64(unfused.Microseconds())/1000, float64(fused.Microseconds())/1000,
			speedup, dev)
	}
}

func cmplxAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// extras prints the extension measurements: encoding locality, qubit
// tapering, and Krylov-vs-VQE convergence.
func extras(bool) {
	fmt.Println("# Extras A — fermion-to-qubit encoding locality (H2O-like, 16 qubits)")
	fmt.Println("encoding\tterms\tavg_weight\tmax_weight")
	fh := chem.FermionicHamiltonian(chem.WaterLikeScaled(8))
	for _, mk := range []struct {
		name string
		make func(int) (*fermion.Encoding, error)
	}{
		{"jordan-wigner", fermion.JordanWignerEncoding},
		{"bravyi-kitaev", fermion.BravyiKitaevEncoding},
		{"parity", fermion.ParityEncoding},
	} {
		enc, err := mk.make(16)
		if err != nil {
			fail(err)
		}
		q, err := enc.Transform(fh)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\t%d\t%.2f\t%d\n", mk.name, q.NumTerms(), fermion.AverageWeight(q), fermion.MaxWeight(q))
	}

	fmt.Println("\n# Extras B — Z2-symmetry qubit tapering")
	fmt.Println("molecule\tqubits_before\tqubits_after\tground_preserved")
	for _, m := range []*chem.MolecularData{chem.H2(), chem.Synthetic(chem.SyntheticOptions{NumOrbitals: 3, NumElectrons: 2, Seed: 8})} {
		res, err := chem.TaperedHamiltonian(m)
		if err != nil {
			fail(err)
		}
		fci, err := chem.FCI(m)
		if err != nil {
			fail(err)
		}
		e, _, err := linalg.LanczosGround(pauli.OpMatVec{Op: res.Tapered, N: res.NumQubits}, linalg.LanczosOptions{})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\t%d\t%d\t%v\n", m.Name, m.NumSpinOrbitals(), res.NumQubits, e <= fci.Energy+1e-8)
	}

	fmt.Println("\n# Extras C — quantum Krylov diagonalization vs dimension (H2)")
	fmt.Println("dimension\tE_krylov\tdelta_vs_FCI")
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, err := chem.FCI(m)
	if err != nil {
		fail(err)
	}
	prep := qpe.HartreeFockPrep(4, 2)
	for _, dim := range []int{1, 2, 3, 4} {
		res, err := vqe.KrylovDiagonalize(h, 4, prep, vqe.KrylovOptions{Dimension: dim, Exact: true})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d\t%.8f\t%.2e\n", dim, res.Energies[0], math.Abs(res.Energies[0]-fci.Energy))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchfigs:", err)
	os.Exit(1)
}
