package probe

import (
	"repro/internal/chem"
	"repro/internal/runspec"
)

// Chem times molecule construction and the FCI reference for the spec's
// molecule.
func Chem(e Env, in Inputs) (*chem.MolecularData, Metrics, error) {
	var m *chem.MolecularData
	var err error
	build := e.time("chem.molecule", func() { m, err = runspec.BuildMolecule(in.Spec.Molecule) })
	if err != nil {
		return nil, nil, err
	}
	fci := e.time("chem.fci", func() {
		_, err = chem.FCIofOp(chem.FermionicHamiltonian(m), m.NumSpinOrbitals(), m.NumElectrons)
	})
	if err != nil {
		return nil, nil, err
	}
	return m, Metrics{
		"chem.molecule_ms": Median(build),
		"chem.fci_ms":      Median(fci),
	}, nil
}
