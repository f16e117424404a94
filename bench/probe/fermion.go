package probe

import (
	"repro/internal/chem"
	"repro/internal/pauli"
	"repro/internal/runspec"
)

// Fermion times the fermion-to-qubit mapping of the molecule's
// Hamiltonian under the spec's encoding.
func Fermion(e Env, in Inputs, m *chem.MolecularData) (*pauli.Op, Metrics, error) {
	var h *pauli.Op
	var err error
	obs := e.time("fermion.observable", func() { h, err = runspec.BuildObservable(m, in.Spec.Encoding) })
	if err != nil {
		return nil, nil, err
	}
	return h, Metrics{
		"fermion.observable_ms": Median(obs),
		"fermion.terms":         float64(h.NumTerms()),
	}, nil
}
