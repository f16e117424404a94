// Command vqe runs the end-to-end VQE workflow (paper Figure 2) on a
// built-in molecular model and reports the optimized energy against the
// exact (FCI) reference. Flags assemble a runspec.RunSpec — the same
// document the vqed daemon accepts over HTTP — and the shared engine
// executes it.
//
//	vqe -molecule h2                      # UCCSD VQE on H2/STO-3G
//	vqe -molecule water -adapt            # Adapt-VQE on the 12-qubit model
//	vqe -molecule h2 -qpe                 # quantum phase estimation
//	vqe -molecule hubbard -sites 3 -u 4   # Hubbard chain
//	vqe -molecule synthetic -orbitals 3 -electrons 2 -downfold 2
//	vqe -molecule water -checkpoint w.ckpt -walltime 00:30  # budgeted run
//	vqe -molecule water -checkpoint w.ckpt -resume          # continue it
//	vqe -spec job.json                    # run a spec document directly
//	vqe -scan 0.4:2.0:0.05                # warm-started H2 dissociation scan
//	vqe -sweep family.json                # run a SweepSpec job family
//	vqe -sweep family.json -sweep-cold    # cold baseline for the comparison
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/cmd/internal/runreport"
	"repro/cmd/internal/specflags"
	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/runspec"
	"repro/internal/vqe"
)

func main() {
	sf := specflags.Add(flag.CommandLine, specflags.All)
	var (
		taper     = flag.Bool("taper", false, "report Z2-symmetry qubit tapering of the observable")
		hamFile   = flag.String("hamiltonian", "", "run VQE on an operator file (hardware-efficient ansatz) instead of a built-in molecule")
		layers    = flag.Int("layers", 2, "operator-file mode: HEA entangling layers")
		scan      = flag.String("scan", "", "H2 dissociation scan \"start:stop:step\" in Å (warm-started VQE)")
		specFile  = flag.String("spec", "", "run a RunSpec JSON document instead of assembling one from flags")
		sweepFile = flag.String("sweep", "", "run a SweepSpec JSON document (parameter-sweep job family)")
		sweepCold = flag.Bool("sweep-cold", false, "disable warm-starting in -scan/-sweep (the cold baseline for the iteration-savings comparison)")
	)
	obsFlags := runreport.AddFlags(flag.CommandLine)
	flag.Parse()

	var err error
	rep, err = runreport.Start("vqe", obsFlags)
	if err != nil {
		fail(err)
	}

	if *hamFile != "" {
		runOnOperatorFile(*hamFile, *layers, sf.Workers())
		finishReport()
		return
	}
	if *scan != "" {
		runScan(*scan, *sweepCold)
		finishReport()
		return
	}
	if *sweepFile != "" {
		data, err := os.ReadFile(*sweepFile)
		if err != nil {
			fail(err)
		}
		ss, err := runspec.ParseSweep(data)
		if err != nil {
			fail(err)
		}
		runSweep(ss, *sweepCold, ss.Axis.Param)
		finishReport()
		return
	}

	var spec *runspec.RunSpec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fail(err)
		}
		if spec, err = runspec.Parse(data); err != nil {
			fail(err)
		}
	} else if spec, err = sf.Spec(); err != nil {
		fail(err)
	}
	spec.ApplyDefaults()

	if *taper {
		m, err := runspec.BuildMolecule(spec.Molecule)
		if err != nil {
			fail(err)
		}
		tr, err := chem.TaperedHamiltonian(m)
		if err != nil {
			fail(err)
		}
		fmt.Printf("tapering:   %d → %d qubits (%d Z2 symmetries removed)\n",
			m.NumSpinOrbitals(), tr.NumQubits, len(tr.Symmetries))
	}
	if spec.Resilience.Walltime != "" {
		fmt.Printf("walltime:   %s budget\n", spec.Resilience.Walltime)
	}

	res, err := runspec.Run(context.Background(), spec, runspec.RunOptions{})
	if err != nil {
		fail(err)
	}
	report(spec, res)
	finishReport()
}

// report prints the engine result in the CLI's traditional shape.
func report(spec *runspec.RunSpec, res *runspec.Result) {
	fmt.Printf("molecule:   %s (spec %s)\n", res.Molecule, res.SpecHash)
	fmt.Printf("observable: %d Pauli terms on %d qubits (%s encoding)\n",
		res.NumTerms, res.NumQubits, spec.Encoding)
	rep.SetQubits(res.NumQubits)
	rep.SetTerms(res.NumTerms)
	fmt.Printf("reference:  E(HF)  = %+.8f Ha\n", res.HartreeFock)
	fmt.Printf("            E(FCI) = %+.8f Ha\n", res.Exact)

	if res.Algorithm == runspec.AlgorithmAdapt && len(res.History) > 0 {
		fmt.Println("\niter  operator            energy          ΔE (mHa)")
		for _, it := range res.History {
			fmt.Printf("%4d  %-18s %+.8f  %8.3f\n", it.Iteration, it.Operator, it.Energy, 1000*it.ErrorVsExact)
		}
	}
	if res.Interrupted {
		fmt.Println("\nwalltime expired: reporting the best point reached before the cutoff")
		if res.CheckpointPath != "" {
			fmt.Printf("state saved to %s — rerun with -resume to continue\n", res.CheckpointPath)
		}
	}
	switch res.Algorithm {
	case runspec.AlgorithmQPE:
		fmt.Printf("\nQPE result (%d ancillas, resolution %.4f Ha):\n", spec.QPE.Ancillas, res.QPE.Resolution)
		fmt.Printf("  E(QPE)    = %+.6f Ha (confidence %.2f)\n", res.Energy, res.QPE.Confidence)
		fmt.Printf("  |ΔE(FCI)| = %.3e Ha\n", res.ErrorVsExact)
	case runspec.AlgorithmAdapt:
		switch {
		case res.Interrupted:
			fmt.Println("ansatz growth stopped at the last completed iteration")
		case res.Converged:
			fmt.Printf("converged to chemical accuracy in %d iterations\n", len(res.History))
		default:
			fmt.Println("did not reach chemical accuracy within the iteration budget")
		}
		fmt.Printf("  E(Adapt)  = %+.8f Ha, |ΔE(FCI)| = %.3e Ha\n", res.Energy, res.ErrorVsExact)
	default:
		fmt.Printf("\nVQE result (backend=%s, mode=%s, optimizer=%s):\n",
			spec.Backend.Accelerator, spec.Mode, spec.Optimizer.Method)
		fmt.Printf("  E(VQE)    = %+.8f Ha\n", res.Energy)
		fmt.Printf("  |ΔE(FCI)| = %.3e Ha (%.3f mHa)\n", res.ErrorVsExact, 1000*res.ErrorVsExact)
		fmt.Printf("  energy evaluations: %d, ansatz executions: %d, gates applied: %d\n",
			res.EnergyEvaluations, res.AnsatzExecutions, res.GatesApplied)
	}
}

// rep is the process run report (set once in main before any workload
// runs; helpers touch it from the same goroutine).
var rep *runreport.Run

func finishReport() {
	if err := rep.Finish(); err != nil {
		fail(err)
	}
}

// runOnOperatorFile loads a serialized observable and minimizes it with a
// hardware-efficient ansatz, reporting against the Lanczos ground energy.
// This path stays outside the spec engine: an arbitrary operator file has
// no declarative molecule section.
func runOnOperatorFile(path string, layers, workers int) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	h, n, err := pauli.ReadOp(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("observable: %d Pauli terms on %d qubits (from %s)\n", h.NumTerms(), n, path)
	rep.SetQubits(n)
	rep.SetTerms(h.NumTerms())
	exact, _, err := linalg.LanczosGround(pauli.OpMatVec{Op: h, N: n}, linalg.LanczosOptions{})
	if err != nil {
		fail(err)
	}
	fmt.Printf("reference:  E(exact) = %+.8f (Lanczos)\n", exact)
	hea, err := ansatz.NewHardwareEfficient(n, layers, 0)
	if err != nil {
		fail(err)
	}
	fmt.Printf("ansatz:     hardware-efficient, %d layers, %d parameters\n", layers, hea.NumParameters())
	drv, err := vqe.New(h, hea, vqe.Options{Mode: vqe.Direct, Workers: workers})
	if err != nil {
		fail(err)
	}
	// HEA landscapes are rugged: multi-start Nelder–Mead, keep the best.
	best := math.Inf(1)
	rng := core.NewRNG(7)
	var bestRes vqe.Result
	for start := 0; start < 4; start++ {
		x0 := make([]float64, hea.NumParameters())
		for i := range x0 {
			x0[i] = 0.4 * rng.NormFloat64()
		}
		res, err := drv.Minimize(context.Background(), x0, opt.NelderMeadOptions{MaxIter: 4000}, vqe.ResilienceOptions{})
		if err != nil {
			fail(err)
		}
		if res.Energy < best {
			best = res.Energy
			bestRes = res
		}
	}
	fmt.Printf("\nVQE result (HEA, Nelder-Mead, 4 starts):\n")
	fmt.Printf("  E(VQE)    = %+.8f\n", bestRes.Energy)
	fmt.Printf("  |ΔE|      = %.3e\n", math.Abs(bestRes.Energy-exact))
	fmt.Printf("  energy evaluations: %d\n", bestRes.Stats.EnergyEvaluations)
}

// runScan sweeps the H2 bond length, printing one row per geometry with
// warm-started VQE (paper §6.2 incremental optimization). It is sugar
// for a distance-axis SweepSpec executed by the shared family runner —
// the same expansion, ordering, and warm-start chain the vqed scheduler
// uses.
func runScan(spec string, cold bool) {
	var start, stop, step float64
	if _, err := fmt.Sscanf(spec, "%f:%f:%f", &start, &stop, &step); err != nil || step <= 0 || stop < start {
		fail(fmt.Errorf("bad -scan %q (want start:stop:step)", spec))
	}
	ss := &runspec.SweepSpec{
		Base: runspec.RunSpec{Algorithm: runspec.AlgorithmVQE, Molecule: runspec.MoleculeSpec{Kind: "h2"}},
		Axis: runspec.SweepAxis{Param: runspec.AxisDistance, Start: start, Stop: stop, Step: step},
	}
	runSweep(ss, cold, "R_angstrom")
}

// runSweep executes a family via the shared runner, one row per point in
// execution (axis-value) order plus a totals line.
func runSweep(ss *runspec.SweepSpec, cold bool, valueHeader string) {
	fmt.Printf("%s\tE_HF\tE_VQE\tE_FCI\tdelta\tevals\n", valueHeader)
	res, err := runspec.RunSweep(context.Background(), ss, runspec.SweepRunOptions{
		ColdStart: cold,
		OnPoint: func(po runspec.SweepPointOutcome) {
			if po.Error != "" {
				fmt.Printf("%.4f\tFAILED: %s\n", po.Value, po.Error)
				return
			}
			r := po.Result
			rep.SetQubits(r.NumQubits)
			rep.SetTerms(r.NumTerms)
			fmt.Printf("%.4f\t%+.6f\t%+.6f\t%+.6f\t%.2e\t%d\n",
				po.Value, r.HartreeFock, r.Energy, r.Exact,
				r.ErrorVsExact, r.EnergyEvaluations)
		},
	})
	if err != nil {
		fail(err)
	}
	warmed := 0
	for _, po := range res.Points {
		if po.WarmStarted {
			warmed++
		}
	}
	fmt.Printf("sweep:\t%d point(s), %d warm-started, %d failed, %d energy evaluations total (family %s)\n",
		len(res.Points), warmed, res.Failed, res.EnergyEvaluations, res.FamilyHash)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vqe:", err)
	os.Exit(1)
}
