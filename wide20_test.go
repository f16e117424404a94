package vqesim

import (
	"runtime"
	"testing"

	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// TestHEAProgramSweeps holds the wide20 circuit (20 qubits, one
// hardware-efficient layer, seeded θ) to its fused shape: 19 ops after
// transpilation — one 2-qubit block per CX of the ladder, both rotation
// layers folded in — executed in at most 2 passes over the state.
func TestHEAProgramSweeps(t *testing.T) {
	c, _ := wide20Workload(t)
	p := state.CompileFused(c)
	if got := p.GatesAfter(); got != 19 {
		t.Errorf("GatesAfter = %d, want 19", got)
	}
	if got := p.NumSweeps(); got > 2 {
		t.Errorf("%d sweeps over the state, want at most 2", got)
	}
}

// TestWide20PlanWindows holds the wide20 observable's plan to its shape
// at n = 20: 19 X-mask groups — the diagonal one and 18 hopping groups
// with X on q and q+2 — read through 20 windows (2 for the diagonal
// group, 1 per hopping group) with no term left over, so an evaluation
// adds each amplitude pair's weight once per window: 2·2^20 + 18·2^19.
func TestWide20PlanWindows(t *testing.T) {
	_, plan := wide20Workload(t)
	if got := plan.NumGroups(); got != 19 {
		t.Errorf("NumGroups = %d, want 19", got)
	}
	if wins, left := plan.NumWindows(20); wins != 20 || left != 0 {
		t.Errorf("NumWindows(20) = %d windows, %d leftover terms; want 20 and 0", wins, left)
	}
}

// wide20AmpsSwept is what the wide20 program's kernels sweep from
// |0…0⟩: block (q, q+1) of the ladder runs on the support q+2 qubits
// after the ones before it, so it sweeps 4·2^q amplitudes in the first
// segment (q < 10, one tile) and 4·2^(q−9) in each of the second's 2^9
// gathered tiles — 4 092 + 512 · 4 088, against 19 · 2^20 for full
// sweeps.
const wide20AmpsSwept = 4092 + 512*4088

// TestWide20AmpsSwept counts the amplitudes the fused kernels sweep in
// one wide20 run from |0…0⟩ (fusion.amps_swept), and again from a state
// some other writer has touched, where every op sweeps the whole state.
func TestWide20AmpsSwept(t *testing.T) {
	c, _ := wide20Workload(t)
	p := state.CompileFused(c)
	s := state.New(c.NumQubits, state.Options{Workers: 2})
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.Reset()
	})
	for _, tc := range []struct {
		name  string
		prep  func()
		swept int64
	}{
		{"from |0…0⟩", s.ResetZero, wide20AmpsSwept},
		{"after CopyFrom", func() { s.CopyFrom(s) }, 19 << 20},
	} {
		tc.prep()
		telemetry.Reset()
		s.RunFused(p)
		if got := telemetry.Capture().Counters["fusion.amps_swept"]; got != tc.swept {
			t.Errorf("%s: fusion.amps_swept = %d, want %d", tc.name, got, tc.swept)
		}
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
