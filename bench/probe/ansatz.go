package probe

import (
	"fmt"

	"repro/internal/ansatz"
	"repro/internal/circuit"
	"repro/internal/runspec"
)

// BuildAnsatz reconstructs the ansatz a spec runs: the fixed family it
// names, or — for Adapt — the operators the solve selected, looked up by
// label in the same pool.
func BuildAnsatz(in Inputs, n, ne int) (ansatz.Ansatz, error) {
	switch {
	case in.Spec.Algorithm == runspec.AlgorithmAdapt:
		pool, err := ansatz.NewPool(n, ne)
		if err != nil {
			return nil, err
		}
		byLabel := make(map[string]ansatz.Excitation, len(pool.Ops))
		for _, op := range pool.Ops {
			byLabel[op.Label] = op
		}
		a := ansatz.NewAdaptAnsatz(n, ne)
		for _, label := range in.Operators {
			op, ok := byLabel[label]
			if !ok {
				return nil, fmt.Errorf("probe: operator %q is not in the pool", label)
			}
			a.Grow(op)
		}
		return a, nil
	case in.Spec.Ansatz.Kind == "hea":
		return ansatz.NewHardwareEfficient(n, in.Spec.Ansatz.Layers, 0)
	default:
		return ansatz.NewUCCSD(n, ne)
	}
}

// Ansatz times building the circuit for the workload's final θ.
func Ansatz(e Env, in Inputs, a ansatz.Ansatz) (*circuit.Circuit, Metrics, error) {
	if len(in.Theta) != a.NumParameters() {
		return nil, nil, fmt.Errorf("probe: θ has %d entries, ansatz takes %d", len(in.Theta), a.NumParameters())
	}
	var c *circuit.Circuit
	build := e.time("ansatz.circuit", func() { c = a.Circuit(in.Theta) })
	return c, Metrics{
		"ansatz.circuit_ms": Median(build),
		"ansatz.gates":      float64(c.GateCount()),
		"ansatz.params":     float64(a.NumParameters()),
	}, nil
}
