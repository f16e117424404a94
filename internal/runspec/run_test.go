package runspec

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// TestEqualHashEqualResult is the property the daemon's result cache
// stands on: two specs with the same canonical hash must compute
// bit-identical energies, even when their non-canonical fields differ.
// Worker width IS canonical (it fixes the floating-point reduction
// order), so both runs pin the same width — exactly the situation in the
// daemon, where every job draws from one shared pool.
func TestEqualHashEqualResult(t *testing.T) {
	a := &RunSpec{Backend: BackendSpec{Workers: 2}}
	b := &RunSpec{
		Molecule:   MoleculeSpec{Kind: "H2", Sites: 7, Seed: 99}, // erased for h2
		Algorithm:  "vqe",
		Mode:       "direct",
		Shots:      4096,                              // inert in direct mode
		Backend:    BackendSpec{Workers: 2, Ranks: 6}, // ranks inert off-cluster
		Resilience: ResilienceSpec{CheckpointEvery: 3},
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("precondition failed: hashes differ: %s vs %s", a.Hash(), b.Hash())
	}

	pool := state.NewPool(2)
	defer pool.Close()
	ra, err := Run(context.Background(), a, RunOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), b, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Energy != rb.Energy {
		t.Errorf("equal-hash specs computed different energies: %v vs %v", ra.Energy, rb.Energy)
	}
	if ra.SpecHash != rb.SpecHash || ra.SpecHash != a.Hash() {
		t.Errorf("result spec hashes inconsistent: %s vs %s", ra.SpecHash, rb.SpecHash)
	}
	if ra.ErrorVsExact > 1e-6 {
		t.Errorf("H2 VQE missed FCI: |ΔE| = %g", ra.ErrorVsExact)
	}
}

// TestDownfoldHonoursEncoding: a downfolded Hamiltonian is mapped under
// the spec's encoding, the one the UCCSD ansatz is built in, so every
// encoding finds the same active-space ground state.
func TestDownfoldHonoursEncoding(t *testing.T) {
	var energies []float64
	for _, enc := range []string{"jw", "bk", "parity"} {
		spec := &RunSpec{
			Molecule: MoleculeSpec{Kind: "synthetic", Orbitals: 3, Electrons: 2, Seed: 3},
			Downfold: 2,
			Encoding: enc,
		}
		res, err := Run(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		energies = append(energies, res.Energy)
	}
	if math.Abs(energies[1]-energies[0]) > 1e-6 || math.Abs(energies[2]-energies[0]) > 1e-6 {
		t.Errorf("jw, bk, parity energies %v differ", energies)
	}
}

func TestRunH2Progress(t *testing.T) {
	var trace []Progress
	spec := &RunSpec{Optimizer: OptimizerSpec{Method: "nelder-mead", MaxIter: 50}}
	res, err := Run(context.Background(), spec, RunOptions{
		OnProgress: func(p Progress) { trace = append(trace, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no progress events delivered")
	}
	// Setup-phase heartbeats precede the optimizer trace: they carry no
	// energy and restart the iteration count, so check them separately.
	setup := 0
	for setup < len(trace) && trace[setup].Phase == "setup" {
		setup++
	}
	if setup == 0 {
		t.Error("no setup-phase heartbeats before the optimizer trace")
	}
	for _, p := range trace[setup:] {
		if p.Phase == "setup" {
			t.Fatalf("setup heartbeat after optimizer progress: %+v", p)
		}
	}
	trace = trace[setup:]
	if len(trace) == 0 {
		t.Fatal("no optimizer progress events delivered")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Iteration < trace[i-1].Iteration {
			t.Fatalf("progress iterations not monotone at %d: %+v", i, trace[i])
		}
		if trace[i].Energy > trace[i-1].Energy+1e-12 {
			t.Fatalf("best-so-far energy regressed at %d: %v → %v", i, trace[i-1].Energy, trace[i].Energy)
		}
	}
	if math.Abs(res.Energy-trace[len(trace)-1].Energy) > 1e-6 {
		t.Errorf("final progress energy %v far from result %v", trace[len(trace)-1].Energy, res.Energy)
	}
}

// TestRunAcceleratorBackend routes VQE through the registry instead of
// the in-process driver.
func TestRunAcceleratorBackend(t *testing.T) {
	spec := &RunSpec{Backend: BackendSpec{Accelerator: "nwq-sv-serial"}}
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorVsExact > 1e-5 {
		t.Errorf("accelerator-routed H2 VQE missed FCI: |ΔE| = %g", res.ErrorVsExact)
	}
}

func TestRunAdaptH2(t *testing.T) {
	spec := &RunSpec{Algorithm: AlgorithmAdapt, Adapt: AdaptSpec{MaxIterations: 6}}
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("adapt run produced no history")
	}
	if !res.Converged && res.ErrorVsExact > 1.6e-3 {
		t.Errorf("adapt H2 neither converged nor close: |ΔE| = %g", res.ErrorVsExact)
	}
}

func TestRunQPEH2(t *testing.T) {
	spec := &RunSpec{Algorithm: AlgorithmQPE, QPE: QPESpec{Ancillas: 6}}
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.QPE == nil {
		t.Fatal("QPE result missing outcome section")
	}
	if res.ErrorVsExact > res.QPE.Resolution {
		t.Errorf("QPE error %g exceeds its own resolution %g", res.ErrorVsExact, res.QPE.Resolution)
	}
}

// TestClusterCrashResumeBitEqual is the driver's crash/resume property
// run through a registry backend: an H2 run on nwq-cluster cancelled at
// an iteration boundary leaves a snapshot on disk, and resuming from it
// lands on the energy and parameter bits of the run that was never
// interrupted. Before the loops were merged a backend run reported a
// checkpoint path and never wrote the file.
func TestClusterCrashResumeBitEqual(t *testing.T) {
	for method, killAt := range map[string]int{"nelder-mead": 11, "lbfgs": 1} {
		base := RunSpec{
			Optimizer: OptimizerSpec{Method: method},
			Backend:   BackendSpec{Accelerator: "nwq-cluster"},
		}
		full, err := Run(context.Background(), &base, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if full.CheckpointPath != "" {
			t.Errorf("%s: run without checkpointing reports path %q", method, full.CheckpointPath)
		}

		path := filepath.Join(t.TempDir(), "cluster.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		partial, err := Run(ctx, &base, RunOptions{CheckpointPath: path, OnProgress: func(p Progress) {
			if p.Phase == AlgorithmVQE && p.Iteration >= killAt {
				cancel()
			}
		}})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted || partial.CheckpointPath != path {
			t.Fatalf("%s: interrupted=%v checkpoint_path=%q, want a halted run naming %s",
				method, partial.Interrupted, partial.CheckpointPath, path)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: no snapshot on disk: %v", method, err)
		}

		resume := base
		resume.Resilience = ResilienceSpec{CheckpointPath: path, Resume: true}
		resumed, err := Run(context.Background(), &resume, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Interrupted || !resumed.Converged ||
			math.Float64bits(resumed.Energy) != math.Float64bits(full.Energy) {
			t.Errorf("%s: resumed to %v (interrupted=%v converged=%v), straight-through %v",
				method, resumed.Energy, resumed.Interrupted, resumed.Converged, full.Energy)
		}
		for i := range full.Params {
			if math.Float64bits(resumed.Params[i]) != math.Float64bits(full.Params[i]) {
				t.Errorf("%s: param %d: %v != %v", method, i, resumed.Params[i], full.Params[i])
			}
		}
	}
}

// TestCheckpointPathOnlyWhenWritten: Result.CheckpointPath names a file
// that exists. QPE has no loop to snapshot, so it reports none however
// the spec is configured.
func TestCheckpointPathOnlyWhenWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never.ckpt")
	spec := &RunSpec{Algorithm: AlgorithmQPE, QPE: QPESpec{Ancillas: 4},
		Resilience: ResilienceSpec{CheckpointPath: path}}
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(path); statErr == nil || res.CheckpointPath != "" {
		t.Errorf("qpe reports checkpoint %q (file exists: %v)", res.CheckpointPath, statErr == nil)
	}
	for _, acc := range []string{"nwq-sv", "nwq-dm"} {
		path := filepath.Join(t.TempDir(), acc+".ckpt")
		res, err := Run(context.Background(), &RunSpec{Backend: BackendSpec{Accelerator: acc}}, RunOptions{CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if _, statErr := os.Stat(path); statErr != nil || res.CheckpointPath != path {
			t.Errorf("%s: checkpoint_path %q, stat %v; want the written snapshot", acc, res.CheckpointPath, statErr)
		}
	}
}

// adaptWater1 is one Adapt iteration on 12-qubit water: the molecule, its
// observable, the FCI reference, the pool, one scan and one inner solve.
const adaptWater1 = `{"molecule":{"kind":"water"},"algorithm":"adapt","adapt":{"max_iterations":1},"backend":{"workers":1}}`

// TestAdaptRunBuildsHamiltonianOnce: a job maps its Hamiltonian through
// Jordan–Wigner once and compiles its plan once, and the FCI reference
// and Adapt both read that plan. Both counters also count the pool's
// generators, which ansatz.NewPool maps and compiles one each.
func TestAdaptRunBuildsHamiltonianOnce(t *testing.T) {
	spec, err := Parse([]byte(adaptWater1))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ansatz.NewPool(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	telemetry.Reset()
	if _, err := Run(context.Background(), spec, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	timers := telemetry.Capture().Timers
	want := int64(1 + len(pool.Ops))
	if n := timers["fermion.jordan_wigner"].Count; n != want {
		t.Errorf("%d Jordan–Wigner mappings per job, want %d: H once and the %d pool generators", n, want, len(pool.Ops))
	}
	if n := timers["pauli.plan.build"].Count; n != want {
		t.Errorf("%d plans compiled per job, want %d: H once and the %d pool generators", n, want, len(pool.Ops))
	}
}

// TestVQERunCompilesHamiltonianOnce: a UCCSD job compiles H's plan once,
// in the job's observable, and the driver evaluates that plan instead of
// compiling a second one. The counter also counts the ansatz's
// generators, one plan each. The job is one 6-qubit point of a served
// Hubbard sweep family.
func TestVQERunCompilesHamiltonianOnce(t *testing.T) {
	spec, err := Parse([]byte(`{"molecule":{"kind":"hubbard","sites":3,"electrons":2,"u":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.NewUCCSD(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	generators := len(a.Operators())
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	telemetry.Reset()
	if _, err := Run(context.Background(), spec, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want := int64(1 + generators)
	if n := telemetry.Capture().Timers["pauli.plan.build"].Count; n != want {
		t.Errorf("%d plans compiled per job, want %d: H once and the %d generators", n, want, generators)
	}
}

// TestAdaptRunRestrictsOnce is a count gate on pauli.restrict: a job
// restricts H to its particle-number sector once. The FCI reference does
// it on the job's plan, which keeps the result, and the Adapt block (the
// UCCSD block for a VQE job) is cut out of that restriction instead of
// restricting the plan again, as it did before: 2 per adapt job.
func TestAdaptRunRestrictsOnce(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	for _, body := range []string{adaptWater1, `{"molecule":{"kind":"hubbard","sites":3,"electrons":2,"u":4}}`} {
		spec, err := Parse([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		telemetry.Reset()
		if _, err := Run(context.Background(), spec, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := telemetry.Capture().Counters["pauli.restrict"]; n != 1 {
			t.Errorf("%s: %d restrictions of H per job, want 1", body, n)
		}
	}
}

// TestAdaptRunAllocationBound is a count gate on one adaptWater1 job.
// Building H twice, once for the observable and once for the FCI
// reference, cost 65 391 allocations (84 148 under -race) with a
// formatted string key per fermion.Op term, and ≈34 900 with one byte per
// ladder. One build whose plan the reference reads costs 20 980 (21 043
// under -race). The bound is halfway between the last two, so the second
// build coming back fails it, as the string keys would.
func TestAdaptRunAllocationBound(t *testing.T) {
	spec, err := Parse([]byte(adaptWater1))
	if err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(1, func() {
		if _, err := Run(context.Background(), spec, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("adaptWater1: %.0f allocations per job", a)
	if a > 28000 {
		t.Errorf("adaptWater1: %.0f allocations per job, bound 28 000", a)
	}
}

// TestOversizedSpecRefusedBeforeBuild: a default 16-site Hubbard spec asks
// for 32 qubits, past nwq-sv's limit of 30. Run refuses it with
// ErrInvalidArgument, for VQE, Adapt and QPE alike, before any
// Hamiltonian is built or compiled.
func TestOversizedSpecRefusedBeforeBuild(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	for _, algorithm := range []string{"vqe", "adapt", "qpe"} {
		spec, err := Parse([]byte(`{"molecule":{"kind":"hubbard","sites":16},"algorithm":"` + algorithm + `"}`))
		if err != nil {
			t.Fatal(err)
		}
		telemetry.Reset()
		if _, err := Run(context.Background(), spec, RunOptions{}); !errors.Is(err, core.ErrInvalidArgument) || !strings.Contains(err.Error(), "32 qubits") {
			t.Errorf("%s: Run: %v, want ErrInvalidArgument for 32 qubits", algorithm, err)
		}
		timers := telemetry.Capture().Timers
		if n := timers["fermion.jordan_wigner"].Count + timers["pauli.plan.build"].Count; n != 0 {
			t.Errorf("%s: %d mappings and plans built before the refusal, want 0", algorithm, n)
		}
	}
}
