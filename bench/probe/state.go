package probe

import (
	"repro/internal/circuit"
	"repro/internal/state"
)

// State times both circuit interpreters on the workload's circuit: the
// plain gate-by-gate Run and the fused program (compile, then execute).
// It returns the prepared state and the time of the path the VQE driver
// itself takes for this spec, which the closure check needs.
func State(e Env, in Inputs, c *circuit.Circuit) (*state.State, float64, Metrics) {
	n := c.NumQubits
	amps := float64(uint64(1) << uint(n))
	s := state.New(n, state.Options{Workers: in.Spec.Backend.Workers})

	s.ResetCounters()
	s.ResetZero()
	s.Run(c)
	gates := float64(s.GatesApplied())
	run := e.time("state.run", func() {
		s.ResetZero()
		s.Run(c)
	})

	var p *state.FusedProgram
	compile := e.time("state.compile", func() { p = state.CompileFused(c) })
	exec := e.time("state.exec_fused", func() {
		s.ResetZero()
		s.RunFused(p)
	})

	path := run
	if in.Spec.Fusion {
		// What Driver.Energy does with fusion on: RunOptimized, which
		// compiles and runs fused above the calibrated cutoff and falls
		// back to the transpiled gate list below it.
		path = e.time("state.run_optimized", func() {
			s.ResetZero()
			s.RunOptimized(c)
		})
	}
	ops := float64(p.GatesAfter())
	m := Metrics{
		"state.run_ms":                Median(run),
		"state.run_ns_per_gate_amp":   Ratio(Median(run)*1e6, gates*amps),
		"state.gates_applied":         gates,
		"state.compile_ms":            Median(compile),
		"state.exec_fused_ms":         Median(exec),
		"state.fused_ns_per_gate_amp": Ratio(Median(exec)*1e6, ops*amps),
		"state.fused_ops":             ops,
		"state.compile_share":         Ratio(Median(compile), Median(compile)+Median(exec)),
		// Computed, not measured: every fused op reads and writes each
		// 16-byte amplitude once.
		"state.bytes_per_exec_computed": ops * 2 * 16 * amps,
	}
	return s, Median(path), m
}
