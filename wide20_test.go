package vqesim

import (
	"runtime"
	"testing"

	"repro/internal/pauli"
	"repro/internal/state"
)

// TestHEAProgramSweeps holds the wide20 circuit (20 qubits, one
// hardware-efficient layer, seeded θ) to its fused shape: 37 ops after
// transpilation, executed in at most 4 passes over the state instead of
// one pass per op.
func TestHEAProgramSweeps(t *testing.T) {
	c, _ := wide20Workload(t)
	p := state.CompileFused(c)
	if got := p.GatesAfter(); got != 37 {
		t.Errorf("GatesAfter = %d, want 37", got)
	}
	if got := p.NumSweeps(); got > 4 {
		t.Errorf("%d sweeps over the state, want at most 4", got)
	}
}

// parentBytesPerEvaluation is what one RunOptimized + Evaluate of the
// wide20 workload allocated before segments replaced layers
// (BenchmarkWide20Evaluation/both, -benchmem).
const parentBytesPerEvaluation = 217360

// TestWide20EvaluationAllocations bounds the garbage of one wide20
// energy evaluation on two workers: Plan.Evaluate allocates at most one
// object once warm, and compile, execute and evaluate together allocate
// no more bytes than before segments.
func TestWide20EvaluationAllocations(t *testing.T) {
	c, plan := wide20Workload(t)
	s := state.New(c.NumQubits, state.Options{Workers: 2})
	opts := pauli.ExpectationOptions{Workers: 2}
	s.RunOptimized(c)
	if got := testing.AllocsPerRun(3, func() { plan.Evaluate(s, opts) }); got > 1 {
		t.Errorf("Plan.Evaluate allocates %v objects per call, want at most 1", got)
	}

	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s.ResetZero()
		s.RunOptimized(c)
		plan.Evaluate(s, opts)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > parentBytesPerEvaluation {
		t.Errorf("RunOptimized + Evaluate allocates %d B per evaluation, %d B before segments", got, parentBytesPerEvaluation)
	}
}
