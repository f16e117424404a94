// Package noise implements stochastic Pauli-trajectory noise on the
// state-vector backend: depolarizing errors are unravelled into random
// Pauli insertions, and observables are averaged over many trajectories.
// Each trajectory costs one pure-state simulation, so noise studies scale
// to qubit counts far beyond the density-matrix backend's 4ⁿ wall — the
// standard trick production simulators (including NWQ-Sim) use for large
// noisy circuits. The density-matrix backend provides the exact reference
// the trajectory average must converge to.
package noise

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/pauli"
	"repro/internal/state"
)

// Model is a stochastic depolarizing noise model: after every 1-qubit
// (2-qubit) gate, each touched qubit independently suffers a uniformly
// random X/Y/Z error with probability P1 (P2).
type Model struct {
	P1, P2 float64
}

// Validate checks the probabilities.
func (m Model) Validate() error {
	if m.P1 < 0 || m.P1 > 1 || m.P2 < 0 || m.P2 > 1 {
		return core.ErrInvalidArgument
	}
	return nil
}

// RunTrajectory executes one noisy trajectory of the circuit on a fresh
// state, drawing errors from rng. It returns the final state and the
// number of injected errors.
func RunTrajectory(c *circuit.Circuit, m Model, rng *core.RNG, workers int) (*state.State, int) {
	s := state.New(c.NumQubits, state.Options{Workers: workers, Seed: rng.Uint64() | 1})
	injected := 0
	paulis := [3]gate.Kind{gate.X, gate.Y, gate.Z}
	for _, g := range c.Gates {
		s.ApplyGate(g)
		if !g.IsUnitary() || g.Kind == gate.I || g.Kind == gate.Barrier {
			continue
		}
		p := m.P1
		if g.Arity() == 2 {
			p = m.P2
		}
		if p == 0 {
			continue
		}
		for _, q := range g.Qubits {
			if rng.Float64() < p {
				s.ApplyGate(gate.New(paulis[rng.Intn(3)], q))
				injected++
			}
		}
	}
	return s, injected
}

// Options configures trajectory averaging.
type Options struct {
	Trajectories int // default 200
	Seed         uint64
	Workers      int // concurrent trajectories (default 4)
}

// Result carries the averaged estimate.
type Result struct {
	Mean         float64
	StdErr       float64 // standard error of the mean
	Trajectories int
	MeanErrors   float64 // average injected errors per trajectory
}

// Expectation estimates ⟨O⟩ under the noisy circuit by trajectory
// averaging.
func Expectation(c *circuit.Circuit, obs *pauli.Op, m Model, opts Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if obs.MaxQubit() >= c.NumQubits {
		return nil, core.QubitError(obs.MaxQubit(), c.NumQubits)
	}
	trajectories := opts.Trajectories
	if trajectories <= 0 {
		trajectories = 200
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x4015e // arbitrary fixed default
	}

	vals := make([]float64, trajectories)
	errsInjected := make([]int, trajectories)
	// Pre-split RNGs so trajectory t is deterministic regardless of
	// scheduling.
	master := core.NewRNG(seed)
	rngs := make([]*core.RNG, trajectories)
	for i := range rngs {
		rngs[i] = master.Split()
	}
	// One plan serves every trajectory; workers take them from a counter.
	plan := pauli.NewPlan(obs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, trajectories) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tr := int(next.Add(1)) - 1; tr < trajectories; tr = int(next.Add(1)) - 1 {
				s, inj := RunTrajectory(c, m, rngs[tr], 1)
				vals[tr] = plan.Evaluate(s, pauli.ExpectationOptions{})
				errsInjected[tr] = inj
			}
		}()
	}
	wg.Wait()

	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(trajectories)
	varSum := 0.0
	for _, v := range vals {
		varSum += (v - mean) * (v - mean)
	}
	stderr := 0.0
	if trajectories > 1 {
		stderr = math.Sqrt(varSum / float64(trajectories-1) / float64(trajectories))
	}
	meanErr := 0.0
	for _, e := range errsInjected {
		meanErr += float64(e)
	}
	return &Result{
		Mean:         mean,
		StdErr:       stderr,
		Trajectories: trajectories,
		MeanErrors:   meanErr / float64(trajectories),
	}, nil
}
