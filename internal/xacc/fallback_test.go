package xacc

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/pauli"
	"repro/internal/resilience"
)

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
