package probe

import (
	"runtime"

	"repro/internal/ansatz"
	"repro/internal/pauli"
	"repro/internal/runspec"
	"repro/internal/state"
	"repro/internal/vqe"
)

// Unattributed is the closure remainder of one energy evaluation: the
// share of Driver.Energy that circuit construction, circuit execution and
// the expectation sweep do not account for.
func Unattributed(energyMs, circuitMs, execMs, evaluateMs float64) float64 {
	if energyMs == 0 {
		return 0
	}
	return 1 - (circuitMs+execMs+evaluateMs)/energyMs
}

// EnergyUnfused recomputes ⟨H⟩ at in.Theta by a route the timed path of a
// fused workload does not use: a fresh driver with fusion off, so the plain
// gate-by-gate interpreter checks the fused executor. in.Spec must have its
// defaults applied.
func EnergyUnfused(in Inputs) (float64, error) {
	m, err := runspec.BuildMolecule(in.Spec.Molecule)
	if err != nil {
		return 0, err
	}
	h, err := runspec.BuildObservable(m, in.Spec.Encoding)
	if err != nil {
		return 0, err
	}
	a, err := BuildAnsatz(in, m.NumSpinOrbitals(), m.NumElectrons)
	if err != nil {
		return 0, err
	}
	drv, err := vqe.New(h, a, vqe.Options{Mode: vqe.Direct, Workers: in.Spec.Backend.Workers})
	if err != nil {
		return 0, err
	}
	return drv.Energy(in.Theta), nil
}

// VQE times one full energy evaluation through the driver, configured as
// runspec configures it, and — for Adapt — one operator-pool gradient
// scan on the prepared state.
func VQE(e Env, in Inputs, h *pauli.Op, a ansatz.Ansatz, s *state.State, ne int) (Metrics, error) {
	mode := vqe.Direct
	switch in.Spec.Mode {
	case "rotated":
		mode = vqe.Rotated
	case "sampled":
		mode = vqe.Sampled
	}
	drv, err := vqe.New(h, a, vqe.Options{
		Mode:      mode,
		Shots:     in.Spec.Shots,
		Caching:   !in.Spec.DisableCaching && mode != vqe.Direct,
		Workers:   in.Spec.Backend.Workers,
		Transpile: in.Spec.Fusion,
	})
	if err != nil {
		return nil, err
	}
	_ = drv.Energy(in.Theta)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	energy := e.time("vqe.energy", func() { _ = drv.Energy(in.Theta) })
	runtime.ReadMemStats(&after)
	m := Metrics{
		"vqe.energy_ms":           Median(energy),
		"vqe.energy_p95_ms":       Percentile(energy, 95),
		"process.allocs_per_eval": float64(after.Mallocs-before.Mallocs) / float64(len(energy)),
	}
	if in.Spec.Algorithm == runspec.AlgorithmAdapt {
		pool, err := ansatz.NewPool(a.NumQubits(), ne)
		if err != nil {
			return nil, err
		}
		grads := e.time("vqe.pool_gradients", func() { _ = vqe.PoolGradients(s, h, pool.Ops) })
		m["vqe.pool_gradients_ms"] = Median(grads)
	}
	return m, nil
}
