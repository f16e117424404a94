package xacc

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

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
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, err := chem.FCI(m)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ansatz.NewUCCSD(4, 2)

	clean := &VQE{Observable: h, Ansatz: u, Accelerator: &ClusterAccelerator{Ranks: 4}, MaxIter: 2000}
	cleanRes, err := clean.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cleanRes.Energy-fci.Energy) > 1e-4 {
		t.Fatalf("fault-free run off FCI: %v vs %v", cleanRes.Energy, fci.Energy)
	}

	telemetry.Enable()
	retriesBefore := telemetry.GetCounter("cluster.comm.retries").Value()
	opts := faultyClusterOptions(1234)
	drill := &VQE{
		Observable:  h,
		Ansatz:      u,
		Accelerator: &ClusterAccelerator{Ranks: 4, Resilience: opts},
		MaxIter:     2000,
	}
	drillRes, err := drill.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
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
// fall back to the single-node backend and still produce the answer.
func TestFallbackDegradesToSV(t *testing.T) {
	telemetry.Enable()
	brokenCluster := &ClusterAccelerator{
		Ranks: 4,
		Resilience: cluster.Options{
			Fault: resilience.NewFaultInjector(resilience.FaultConfig{Seed: 5, DropProb: 1}),
			Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		},
	}
	fb := &FallbackAccelerator{Chain: []Accelerator{brokenCluster, &SVAccelerator{}}}
	// 6-qubit GHZ: wide enough that the cluster keeps 4 ranks and must
	// exchange blocks (a 2-qubit circuit would clamp to 1 rank and never
	// touch the faulty links).
	ghz := circuit.New(6).H(0)
	for q := 0; q+1 < 6; q++ {
		ghz.CX(q, q+1)
	}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZZZZZ"), 1)

	activationsBefore := telemetry.GetCounter("xacc.fallback.activations").Value()
	e, err := fb.Expectation(context.Background(), ghz, obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("fallback ⟨Z⊗6⟩ = %v, want 1", e)
	}
	if got := telemetry.GetCounter("xacc.fallback.activations").Value(); got <= activationsBefore {
		t.Error("fallback served the request without recording an activation")
	}

	res, err := fb.Execute(context.Background(), ghz, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probabilities[0]-0.5) > 1e-9 {
		t.Error("fallback Execute distribution wrong")
	}
}

// TestFallbackChainExhaustion: when every member fails the caller gets
// the last cause, wrapped.
func TestFallbackChainExhaustion(t *testing.T) {
	broken := func(seed uint64) Accelerator {
		return &ClusterAccelerator{
			Ranks: 4,
			Resilience: cluster.Options{
				Fault: resilience.NewFaultInjector(resilience.FaultConfig{Seed: seed, DropProb: 1}),
				Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
			},
		}
	}
	fb := &FallbackAccelerator{Chain: []Accelerator{broken(1), broken(2)}}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZZZZZ"), 1)
	_, err := fb.Expectation(context.Background(), circuit.New(6).H(5), obs)
	if !errors.Is(err, resilience.ErrRetriesExhausted) {
		t.Fatalf("want wrapped ErrRetriesExhausted, got %v", err)
	}
}

// TestFallbackDoesNotOutliveDeadline: a canceled context must stop the
// chain walk — degrading to a slower backend after walltime expiry would
// defeat the budget.
func TestFallbackDoesNotOutliveDeadline(t *testing.T) {
	fb := &FallbackAccelerator{Chain: []Accelerator{&SVAccelerator{}, &SVAccelerator{}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs := pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
	if _, err := fb.Expectation(ctx, bellCircuit(), obs); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestResilientAcceleratorRegistered: the nwq-resilient chain is in the
// registry and works end to end.
func TestResilientAcceleratorRegistered(t *testing.T) {
	a, err := DefaultRegistry.New("nwq-resilient", AcceleratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Name(), "nwq-cluster") || !strings.Contains(a.Name(), "nwq-sv") {
		t.Errorf("unexpected chain name %q", a.Name())
	}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
	e, err := a.Expectation(context.Background(), bellCircuit(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("nwq-resilient ⟨ZZ⟩ = %v", e)
	}
	if a.NumQubitsLimit() < 30 {
		t.Errorf("chain limit %d below its most capable member", a.NumQubitsLimit())
	}
}

// cancelAfterAccelerator wraps SVAccelerator and fires a cancel func
// after a fixed number of expectation calls — a deterministic stand-in
// for a walltime expiring mid-optimization.
type cancelAfterAccelerator struct {
	SVAccelerator
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
// mid-optimization, ExecuteContext degrades gracefully — best energy so
// far, Interrupted flag, no error.
func TestVQEExecuteContextReturnsBestSoFar(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acc := &cancelAfterAccelerator{after: 25, cancel: cancel}
	alg := &VQE{Observable: h, Ansatz: u, Accelerator: acc, MaxIter: 2000}
	res, err := alg.ExecuteContext(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("mid-run cancellation not flagged")
	}
	if math.IsNaN(res.Energy) || res.Energy > 0 {
		t.Errorf("unusable best-so-far energy %v", res.Energy)
	}
	if res.EnergyEvaluations >= 100 {
		t.Errorf("optimization kept running after cancel: %d evaluations", res.EnergyEvaluations)
	}
}
