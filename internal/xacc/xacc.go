// Package xacc is the reproduction's stand-in for the backend side of the
// XACC programming framework (paper §3): a hardware-agnostic accelerator
// abstraction, a plugin-style registry, and a fallback chain. NWQ-Sim's
// backends (single-node state vector, multi-rank cluster, density matrix)
// register themselves here exactly as simulators register with the real
// XACC. The quantum-classical loop is internal/vqe's: every Accelerator
// satisfies vqe.Backend and is chosen by handing it to the driver.
package xacc

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/pauli"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// Backend instruments shared by every registered accelerator: one timer
// per Accelerator entry point, so a run report shows how much wall clock
// went to circuit execution versus expectation evaluation regardless of
// which backend served it.
var (
	mExecute     = telemetry.GetTimer("xacc.execute")
	mExpectation = telemetry.GetTimer("xacc.expectation")
)

// ExecutionResult carries what a backend produced for one circuit.
type ExecutionResult struct {
	// Counts histograms sampled outcomes (nil when shots == 0).
	Counts map[uint64]int
	// Probabilities is the exact outcome distribution when the backend
	// can provide it (simulators can; hardware cannot).
	Probabilities []float64
}

// Accelerator is the backend abstraction: anything that can run circuits
// and evaluate observables. Both entry points take a context so a
// walltime budget (or interactive cancel) propagates into the engine —
// backends honor it between (not within) gate applications.
type Accelerator interface {
	Name() string
	NumQubitsLimit() int
	// Execute runs a circuit from |0…0⟩ and returns measurement data.
	Execute(ctx context.Context, c *circuit.Circuit, shots int) (*ExecutionResult, error)
	// Expectation returns ⟨prep|obs|prep⟩ by whatever strategy the
	// backend supports best (direct calculation for simulators).
	Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error)
}

// SVAccelerator is the single-node state-vector backend (NWQ-Sim's
// CPU/GPU engine; goroutine-parallel here).
type SVAccelerator struct {
	Workers   int
	Transpile bool
	Seed      uint64
}

// Name implements Accelerator.
func (a *SVAccelerator) Name() string { return "nwq-sv" }

// NumQubitsLimit implements Accelerator (memory-bound).
func (a *SVAccelerator) NumQubitsLimit() int { return 30 }

// Execute implements Accelerator.
func (a *SVAccelerator) Execute(ctx context.Context, c *circuit.Circuit, shots int) (*ExecutionResult, error) {
	defer mExecute.Since(telemetry.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := state.New(c.NumQubits, state.Options{Workers: a.Workers, Seed: a.Seed})
	if a.Transpile {
		s.RunOptimized(c)
	} else {
		s.Run(c)
	}
	res := &ExecutionResult{Probabilities: s.Probabilities()}
	if shots > 0 {
		res.Counts = s.SampleCounts(shots)
	}
	return res, nil
}

// Expectation implements Accelerator with the direct method: the
// observable is compiled into a batched X-mask plan and every term group
// is scored in one pass over the final amplitudes.
func (a *SVAccelerator) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	defer mExpectation.Since(telemetry.Now())
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if obs.MaxQubit() >= prep.NumQubits {
		return 0, core.QubitError(obs.MaxQubit(), prep.NumQubits)
	}
	s := state.New(prep.NumQubits, state.Options{Workers: a.Workers, Seed: a.Seed})
	if a.Transpile {
		s.RunOptimized(prep)
	} else {
		s.Run(prep)
	}
	return pauli.NewPlan(obs).Evaluate(s, pauli.ExpectationOptions{Workers: a.Workers}), nil
}

// ClusterAccelerator is the simulated multi-node backend. Resilience
// carries the fault-injection / verified-communication configuration
// into every cluster it builds; the zero value is the plain fast path.
type ClusterAccelerator struct {
	Ranks      int
	Resilience cluster.Options
}

// Name implements Accelerator.
func (a *ClusterAccelerator) Name() string { return "nwq-cluster" }

// NumQubitsLimit implements Accelerator.
func (a *ClusterAccelerator) NumQubitsLimit() int { return 34 }

// effectiveRanks clamps the configured rank count so that every rank
// keeps at least two local qubits (small circuits run on fewer ranks).
func (a *ClusterAccelerator) effectiveRanks(n int) int {
	ranks := a.Ranks
	if ranks < 1 {
		ranks = 1
	}
	for ranks > 1 && ranks > 1<<uint(n-2) {
		ranks /= 2
	}
	return ranks
}

// Execute implements Accelerator.
func (a *ClusterAccelerator) Execute(ctx context.Context, c *circuit.Circuit, shots int) (*ExecutionResult, error) {
	defer mExecute.Since(telemetry.Now())
	cl, err := cluster.NewWithOptions(c.NumQubits, a.effectiveRanks(c.NumQubits), a.Resilience)
	if err != nil {
		return nil, err
	}
	if err := cl.RunContext(ctx, c); err != nil {
		return nil, err
	}
	s, err := cl.ToState()
	if err != nil {
		return nil, err
	}
	res := &ExecutionResult{Probabilities: s.Probabilities()}
	if shots > 0 {
		res.Counts = s.SampleCounts(shots)
	}
	return res, nil
}

// Expectation implements Accelerator.
func (a *ClusterAccelerator) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	defer mExpectation.Since(telemetry.Now())
	cl, err := cluster.NewWithOptions(prep.NumQubits, a.effectiveRanks(prep.NumQubits), a.Resilience)
	if err != nil {
		return 0, err
	}
	if err := cl.RunContext(ctx, prep); err != nil {
		return 0, err
	}
	s, err := cl.ToState()
	if err != nil {
		return 0, err
	}
	// Workers 0 resolves to GOMAXPROCS: the gathered state is read with
	// the batched engine at full node parallelism.
	return pauli.NewPlan(obs).Evaluate(s, pauli.ExpectationOptions{}), nil
}

// DMAccelerator is the density-matrix backend with optional noise.
type DMAccelerator struct {
	Noise *density.NoiseModel
}

// Name implements Accelerator.
func (a *DMAccelerator) Name() string { return "nwq-dm" }

// NumQubitsLimit implements Accelerator (ρ is 4ⁿ).
func (a *DMAccelerator) NumQubitsLimit() int { return 12 }

// Execute implements Accelerator.
func (a *DMAccelerator) Execute(ctx context.Context, c *circuit.Circuit, shots int) (*ExecutionResult, error) {
	defer mExecute.Since(telemetry.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := density.New(c.NumQubits)
	if err := m.Run(c, a.Noise); err != nil {
		return nil, err
	}
	res := &ExecutionResult{Probabilities: m.Probabilities()}
	if shots > 0 {
		// Sample from the diagonal.
		rng := core.NewRNG(0x5eed)
		res.Counts = state.SampleProbabilities(res.Probabilities, shots, rng)
	}
	return res, nil
}

// Expectation implements Accelerator.
func (a *DMAccelerator) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	defer mExpectation.Since(telemetry.Now())
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m := density.New(prep.NumQubits)
	if err := m.Run(prep, a.Noise); err != nil {
		return 0, err
	}
	return m.Expectation(obs), nil
}
