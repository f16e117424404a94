package xacc

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/pauli"
)

func TestRegistryContainsBuiltins(t *testing.T) {
	names := DefaultRegistry.Names()
	want := map[string]bool{"nwq-sv": false, "nwq-sv-serial": false, "nwq-cluster": false, "nwq-dm": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("builtin %q not registered", n)
		}
	}
}

func TestGetAcceleratorUnknown(t *testing.T) {
	if _, err := DefaultRegistry.New("hal9000", AcceleratorOptions{}); err == nil {
		t.Error("unknown accelerator resolved")
	}
}

func TestRegisterCustomAccelerator(t *testing.T) {
	if err := DefaultRegistry.Register("test-custom", Entry{
		Factory: func(AcceleratorOptions) Accelerator { return &SVAccelerator{Workers: 1} },
	}); err != nil {
		t.Fatal(err)
	}
	a, err := DefaultRegistry.New("test-custom", AcceleratorOptions{})
	if err != nil || a == nil {
		t.Fatal(err)
	}
}

func bellCircuit() *circuit.Circuit {
	return circuit.New(2).H(0).CX(0, 1)
}

func TestAllBackendsAgreeOnBell(t *testing.T) {
	obs := pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
	for _, name := range []string{"nwq-sv", "nwq-sv-serial", "nwq-cluster", "nwq-dm"} {
		a, err := DefaultRegistry.New(name, AcceleratorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := a.Expectation(context.Background(), bellCircuit(), obs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(e-1) > 1e-9 {
			t.Errorf("%s: ⟨ZZ⟩ = %v, want 1", name, e)
		}
		res, err := a.Execute(context.Background(), bellCircuit(), 0)
		if err != nil {
			t.Fatalf("%s execute: %v", name, err)
		}
		if math.Abs(res.Probabilities[0]-0.5) > 1e-9 || math.Abs(res.Probabilities[3]-0.5) > 1e-9 {
			t.Errorf("%s: Bell probabilities wrong", name)
		}
	}
}

func TestExecuteWithShots(t *testing.T) {
	a, _ := DefaultRegistry.New("nwq-sv", AcceleratorOptions{})
	res, err := a.Execute(context.Background(), bellCircuit(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for outcome, c := range res.Counts {
		if outcome == 1 || outcome == 2 {
			t.Errorf("impossible outcome %d sampled", outcome)
		}
		total += c
	}
	if total != 5000 {
		t.Errorf("shot total %d", total)
	}
}

func TestDMAcceleratorWithNoise(t *testing.T) {
	a := &DMAccelerator{Noise: density.DepolarizingModel(0.02, 0.05)}
	obs := pauli.NewOp().Add(pauli.MustParse("ZZ"), 1)
	e, err := a.Expectation(context.Background(), bellCircuit(), obs)
	if err != nil {
		t.Fatal(err)
	}
	// Noise shrinks the correlator strictly below 1 but not catastrophically.
	if e >= 1-1e-9 || e < 0.7 {
		t.Errorf("noisy ⟨ZZ⟩ = %v", e)
	}
}

func TestTranspilingBackendMatches(t *testing.T) {
	plain := &SVAccelerator{}
	fused := &SVAccelerator{Transpile: true}
	obs := pauli.NewOp().Add(pauli.MustParse("XX"), 0.5).Add(pauli.MustParse("ZI"), -0.25)
	c := circuit.New(2).H(0).T(0).CX(0, 1).RZ(0.3, 1).CX(0, 1)
	e1, err1 := plain.Expectation(context.Background(), c, obs)
	e2, err2 := fused.Expectation(context.Background(), c, obs)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(e1-e2) > 1e-10 {
		t.Errorf("transpiled expectation %v vs %v", e2, e1)
	}
}

func TestNumQubitsLimits(t *testing.T) {
	for _, name := range DefaultRegistry.Names() {
		a, err := DefaultRegistry.New(name, AcceleratorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.NumQubitsLimit() < 2 {
			t.Errorf("%s: implausible qubit limit", name)
		}
	}
}

func TestAcceleratorNames(t *testing.T) {
	for _, name := range []string{"nwq-sv", "nwq-cluster", "nwq-dm"} {
		a, err := DefaultRegistry.New(name, AcceleratorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
	}
}

func TestDMAcceleratorShots(t *testing.T) {
	a := &DMAccelerator{Noise: density.DepolarizingModel(0.01, 0.02)}
	res, err := a.Execute(context.Background(), bellCircuit(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 3000 {
		t.Errorf("shot total %d", total)
	}
	// Noise leaks some probability into the odd-parity outcomes.
	if res.Counts[0]+res.Counts[3] == 3000 {
		t.Error("no noise visible in sampled counts")
	}
}

func TestClusterAcceleratorSmallCircuitClamps(t *testing.T) {
	// A 2-qubit circuit on a 4-rank accelerator must clamp ranks rather
	// than fail.
	a := &ClusterAccelerator{Ranks: 4}
	res, err := a.Execute(context.Background(), bellCircuit(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) == 0 {
		t.Error("no counts")
	}
}
