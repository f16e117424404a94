package runspec

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestBackendEnergiesPinned pins the bit pattern of the converged H2
// energy, and the number of energy evaluations spent reaching it, for
// every registry backend under both optimizers. A change to the optimizer
// loop, the gradient a backend run uses, or the order a backend sums its
// expectation in shows up here before it shows up as a cache entry that no
// longer matches a re-run.
//
// nwq-sv prepares the ansatz with generator-exponential kernels and every
// other backend runs Ansatz.Circuit, so the two routes round differently
// (56 ulps on H2) and are pinned separately; what ties them together is
// the agreement check at the end.
func TestBackendEnergiesPinned(t *testing.T) {
	cases := []struct {
		accelerator, method string
		energyBits          uint64
		evaluations         int
	}{
		{"nwq-sv", "nelder-mead", 0xbff2324097d9c4c7, 123},
		{"nwq-sv", "lbfgs", 0xbff2324097e69a19, 6},
		{"nwq-sv-serial", "nelder-mead", 0xbff2324097d9c4ff, 123},
		{"nwq-sv-serial", "lbfgs", 0xbff2324097e69a4a, 42},
		{"nwq-cluster", "nelder-mead", 0xbff2324097d9c4ff, 123},
		{"nwq-cluster", "lbfgs", 0xbff2324097e69a4a, 42},
		{"nwq-dm", "nelder-mead", 0xbff2324097d9c500, 123},
		{"nwq-dm", "lbfgs", 0xbff2324097e69a4b, 42},
		{"nwq-resilient", "nelder-mead", 0xbff2324097d9c4ff, 123},
		{"nwq-resilient", "lbfgs", 0xbff2324097e69a4a, 42},
	}
	energies := map[string]float64{}
	for _, tc := range cases {
		spec := &RunSpec{
			Optimizer: OptimizerSpec{Method: tc.method},
			Backend:   BackendSpec{Accelerator: tc.accelerator},
		}
		res, err := Run(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Errorf("%s/%s: %v", tc.accelerator, tc.method, err)
			continue
		}
		if !res.Converged {
			t.Errorf("%s/%s: did not converge", tc.accelerator, tc.method)
		}
		if got := math.Float64bits(res.Energy); got != tc.energyBits {
			t.Errorf("%s/%s: energy %v has bits %#x, pinned %#x (%v)", tc.accelerator, tc.method,
				res.Energy, got, tc.energyBits, math.Float64frombits(tc.energyBits))
		}
		if res.EnergyEvaluations != tc.evaluations {
			t.Errorf("%s/%s: %d energy evaluations, pinned %d", tc.accelerator, tc.method,
				res.EnergyEvaluations, tc.evaluations)
		}
		energies[tc.accelerator+"/"+tc.method] = res.Energy
	}
	// The kernel route and the circuit route are the same unitary.
	for _, method := range []string{"nelder-mead", "lbfgs"} {
		if d := math.Abs(energies["nwq-sv/"+method] - energies["nwq-sv-serial/"+method]); d > 1e-12 {
			t.Errorf("nwq-sv and nwq-sv-serial disagree by %g under %s", d, method)
		}
	}
}

// TestParentCheckpointResumes resumes the snapshots under testdata/, which
// the commit before the optimizer loops were merged wrote when an H2 run
// on nwq-sv was cancelled (Nelder–Mead at iteration 17, L-BFGS at
// iteration 1). Each must finish on the bits the uninterrupted run is
// pinned to above: the checkpoint kinds and payloads are a wire format.
func TestParentCheckpointResumes(t *testing.T) {
	for method, want := range map[string]uint64{
		"nelder-mead": 0xbff2324097d9c4c7,
		"lbfgs":       0xbff2324097e69a19,
	} {
		fixture, err := os.ReadFile(filepath.Join("testdata", "parent_"+method+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		// Resuming rewrites the snapshot as it goes; work on a copy.
		path := filepath.Join(t.TempDir(), method+".ckpt")
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		spec := &RunSpec{
			Optimizer:  OptimizerSpec{Method: method},
			Resilience: ResilienceSpec{CheckpointPath: path, Resume: true},
		}
		res, err := Run(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Errorf("%s: %v", method, err)
			continue
		}
		if got := math.Float64bits(res.Energy); got != want || !res.Converged || res.Interrupted {
			t.Errorf("%s: resumed to %v (bits %#x, converged=%v, interrupted=%v), pinned %#x",
				method, res.Energy, got, res.Converged, res.Interrupted, want)
		}
	}
}

// TestAdaptWaterTrajectoryPinned pins the paper's Fig. 5 solve — the
// benchmark's adapt12 spec — through Run: which operator each outer
// iteration selects, the energy it optimizes to, and how many energy
// evaluations the twelve inner L-BFGS runs spend. Operator selection is an
// argmax over pool gradients and the stop is an energy threshold, so a
// change to how the ansatz is prepared or differentiated that is only
// "close" shows up here as a different trajectory.
func TestAdaptWaterTrajectoryPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-qubit Adapt solve")
	}
	spec, err := Parse([]byte(`{"molecule":{"kind":"water"},"algorithm":"adapt","backend":{"workers":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		operator string
		energy   float64
	}{
		{"s(6->8)", 1.3080707478813},
		{"s(7->9)", 1.2769455531589},
		{"d(6,7->8,9)", 1.2586149321858},
		{"s(3->9)", 1.2571845847929},
		{"s(2->8)", 1.2557384585920},
		{"s(7->11)", 1.2524499073272},
		{"s(6->10)", 1.2495237087912},
		{"d(6,7->10,11)", 1.2490665269172},
		{"s(3->11)", 1.2488353086814},
		{"s(2->10)", 1.2486044725853},
		{"d(6,7->8,11)", 1.2483327916919},
		{"d(6,7->9,10)", 1.2480746754948},
	}
	if len(res.History) != len(want) {
		t.Fatalf("%d Adapt steps, pinned %d", len(res.History), len(want))
	}
	for i, w := range want {
		got := res.History[i]
		if got.Operator != w.operator {
			t.Errorf("step %d selected %s, pinned %s", i+1, got.Operator, w.operator)
		}
		if math.Abs(got.Energy-w.energy) > 1e-10 {
			t.Errorf("step %d (%s): energy %.13f, pinned %.13f", i+1, got.Operator, got.Energy, w.energy)
		}
	}
	if res.EnergyEvaluations != 161 {
		t.Errorf("%d energy evaluations, pinned 161", res.EnergyEvaluations)
	}
	if !res.Converged || res.Interrupted || !(res.ErrorVsExact < 1e-3) {
		t.Errorf("converged=%v interrupted=%v error_vs_exact=%g, want a converged solve within 1e-3 Ha",
			res.Converged, res.Interrupted, res.ErrorVsExact)
	}
}
