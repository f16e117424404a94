package xacc_test

// The backends under the one VQE loop: these drive vqe.Driver with an
// Accelerator plugged in as its Backend. They live in the external test
// package because xacc itself imports nothing of the loop.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/vqe"
	"repro/internal/xacc"
)

// h2On minimizes H2/UCCSD from zero on the given backend with
// Nelder–Mead, the routine the drills below share.
func h2On(t *testing.T, ctx context.Context, backend vqe.Backend) vqe.Result {
	t.Helper()
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := vqe.New(chem.QubitHamiltonian(chem.H2()), u, vqe.Options{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	res, err := drv.Minimize(ctx, make([]float64, u.NumParameters()),
		opt.NelderMeadOptions{MaxIter: 2000}, vqe.ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func h2FCI(t *testing.T) float64 {
	t.Helper()
	fci, err := chem.FCI(chem.H2())
	if err != nil {
		t.Fatal(err)
	}
	return fci.Energy
}

// TestVQEAlgorithmH2: the loop reaches FCI on a registry backend under
// both optimizers, and counts what it asked the backend for.
func TestVQEAlgorithmH2(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	fci := h2FCI(t)
	u, _ := ansatz.NewUCCSD(4, 2)
	x0 := make([]float64, u.NumParameters())
	for _, optName := range []string{"nelder-mead", "lbfgs"} {
		drv, err := vqe.New(h, u, vqe.Options{Backend: &xacc.SVAccelerator{}})
		if err != nil {
			t.Fatal(err)
		}
		var res vqe.Result
		if optName == "lbfgs" {
			res, err = drv.MinimizeLBFGS(context.Background(), x0, opt.LBFGSOptions{MaxIter: 2000}, vqe.ResilienceOptions{})
		} else {
			res, err = drv.Minimize(context.Background(), x0, opt.NelderMeadOptions{MaxIter: 2000}, vqe.ResilienceOptions{})
		}
		if err != nil {
			t.Fatalf("%s: %v", optName, err)
		}
		if math.Abs(res.Energy-fci) > 1e-4 {
			t.Errorf("%s: E = %v vs FCI %v", optName, res.Energy, fci)
		}
		if res.Stats.EnergyEvaluations == 0 {
			t.Error("no evaluations counted")
		}
	}
}

// TestVQEAlgorithmValidation: what the loop refuses before it ever asks a
// backend for anything.
func TestVQEAlgorithmValidation(t *testing.T) {
	h := chem.QubitHamiltonian(chem.H2())
	u, _ := ansatz.NewUCCSD(4, 2)
	wide := pauli.NewOp().Add(pauli.MustParse("IIIIIZ"), 1)
	if _, err := vqe.New(wide, u, vqe.Options{Backend: &xacc.SVAccelerator{}}); !errors.Is(err, core.ErrQubitOutOfRange) {
		t.Errorf("wide observable: %v, want ErrQubitOutOfRange", err)
	}
	for _, mode := range []vqe.EnergyMode{vqe.Rotated, vqe.Sampled} {
		if _, err := vqe.New(h, u, vqe.Options{Mode: mode, Backend: &xacc.SVAccelerator{}}); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("mode %v on a backend: %v, want ErrInvalidArgument", mode, err)
		}
	}
}

// faultyClusterOptions returns a deterministic fault configuration that
// drops/corrupts transfers but always recovers under retry.
func faultyClusterOptions(seed uint64) cluster.Options {
	return cluster.Options{
		Fault: resilience.NewFaultInjector(resilience.FaultConfig{
			Seed:        seed,
			DropProb:    0.1,
			CorruptProb: 0.1,
			MaxFaults:   500,
		}),
		Retry: resilience.RetryPolicy{MaxAttempts: 12, BaseDelay: 5 * time.Microsecond},
	}
}

// TestFaultDrillH2VQEOnCluster is the end-to-end fault drill: a full H2
// VQE on the multi-rank backend with a seeded fault injector behind
// every block exchange must converge to the same energy as the
// fault-free run, and the recovery telemetry must show the faults were
// actually hit and repaired.
func TestFaultDrillH2VQEOnCluster(t *testing.T) {
	fci := h2FCI(t)
	cleanRes := h2On(t, context.Background(), &xacc.ClusterAccelerator{Ranks: 4})
	if math.Abs(cleanRes.Energy-fci) > 1e-4 {
		t.Fatalf("fault-free run off FCI: %v vs %v", cleanRes.Energy, fci)
	}

	telemetry.Enable()
	retriesBefore := telemetry.GetCounter("cluster.comm.retries").Value()
	opts := faultyClusterOptions(1234)
	drillRes := h2On(t, context.Background(), &xacc.ClusterAccelerator{Ranks: 4, Resilience: opts})
	// Every fault is repaired exactly (retry from the intact source), so
	// the faulted trajectory is the clean trajectory.
	if math.Abs(drillRes.Energy-cleanRes.Energy) > 1e-10 {
		t.Errorf("fault drill energy %v != clean %v", drillRes.Energy, cleanRes.Energy)
	}
	if opts.Fault.Injected() == 0 {
		t.Fatal("no faults injected; drill exercised nothing")
	}
	if got := telemetry.GetCounter("cluster.comm.retries").Value(); got <= retriesBefore {
		t.Errorf("no retries recorded (%d → %d) despite %d injected faults",
			retriesBefore, got, opts.Fault.Injected())
	}
}

// TestFallbackDegradesToSV: a cluster whose links never deliver must
// fall back to the single-node backend and still produce the answer —
// for one expectation, one execution, and a whole VQE loop.
func TestFallbackDegradesToSV(t *testing.T) {
	telemetry.Enable()
	brokenCluster := &xacc.ClusterAccelerator{
		Ranks: 4,
		Resilience: cluster.Options{
			Fault: resilience.NewFaultInjector(resilience.FaultConfig{Seed: 5, DropProb: 1}),
			Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		},
	}
	fb := &xacc.FallbackAccelerator{Chain: []xacc.Accelerator{brokenCluster, &xacc.SVAccelerator{}}}
	// 6-qubit GHZ: wide enough that the cluster keeps 4 ranks and must
	// exchange blocks (a 2-qubit circuit would clamp to 1 rank and never
	// touch the faulty links).
	ghz := circuit.New(6).H(0)
	for q := 0; q+1 < 6; q++ {
		ghz.CX(q, q+1)
	}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZZZZZ"), 1)

	activations := telemetry.GetCounter("xacc.fallback.activations")
	activationsBefore := activations.Value()
	e, err := fb.Expectation(context.Background(), ghz, obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("fallback ⟨Z⊗6⟩ = %v, want 1", e)
	}
	if got := activations.Value(); got <= activationsBefore {
		t.Error("fallback served the request without recording an activation")
	}

	res, err := fb.Execute(context.Background(), ghz, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probabilities[0]-0.5) > 1e-9 {
		t.Error("fallback Execute distribution wrong")
	}

	// Under the loop every evaluation degrades, so the run is the
	// single-node run: same trajectory, same bits.
	activationsBefore = activations.Value()
	degraded := h2On(t, context.Background(), fb)
	direct := h2On(t, context.Background(), &xacc.SVAccelerator{})
	if degraded.Energy != direct.Energy || math.Abs(degraded.Energy-h2FCI(t)) > 1e-4 {
		t.Errorf("degraded VQE energy %v, single-node %v", degraded.Energy, direct.Energy)
	}
	if got := activations.Value() - activationsBefore; got < int64(degraded.Stats.EnergyEvaluations) {
		t.Errorf("%d activations for %d degraded evaluations", got, degraded.Stats.EnergyEvaluations)
	}
}

// cancelAfterAccelerator wraps SVAccelerator and fires a cancel func
// after a fixed number of expectation calls — a deterministic stand-in
// for a walltime expiring mid-optimization.
type cancelAfterAccelerator struct {
	xacc.SVAccelerator
	calls  int
	after  int
	cancel context.CancelFunc
}

func (a *cancelAfterAccelerator) Expectation(_ context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	a.calls++
	if a.calls == a.after {
		a.cancel()
	}
	// Deliberately ignore ctx: the VQE loop's iteration-boundary check is
	// what must detect the cancellation.
	return a.SVAccelerator.Expectation(context.Background(), prep, obs)
}

// TestVQEExecuteContextReturnsBestSoFar: when the context dies
// mid-optimization, the loop degrades gracefully — best energy so far,
// Interrupted flag, no error.
func TestVQEExecuteContextReturnsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acc := &cancelAfterAccelerator{after: 25, cancel: cancel}
	res := h2On(t, ctx, acc)
	if !res.Interrupted {
		t.Fatal("mid-run cancellation not flagged")
	}
	if math.IsNaN(res.Energy) || res.Energy > 0 {
		t.Errorf("unusable best-so-far energy %v", res.Energy)
	}
	if res.Stats.EnergyEvaluations >= 100 {
		t.Errorf("optimization kept running after cancel: %d evaluations", res.Stats.EnergyEvaluations)
	}
}
