package runspec

// BuildCache shares the expensive pre-optimizer construction — molecule
// materialization, qubit-Hamiltonian mapping (with downfolding) and its
// compiled plan, and the FCI reference — across the points of one sweep
// family. Every point of a depth or active-space sweep reuses the
// identical molecule, and a geometry sweep still shares per-point work
// across retry attempts. The cached values are treated as immutable by
// the engine, so sharing them across sequential runs is safe; a nil
// *BuildCache builds everything per run (all methods are nil-receiver
// safe).

import (
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/chem"
	"repro/internal/pauli"
)

// BuildCache memoizes spec-derived construction. Safe for concurrent use.
type BuildCache struct {
	mu   sync.Mutex
	mols map[string]*chem.MolecularData
	obs  map[string]obsEntry
	fci  map[string]float64
}

type obsEntry struct {
	h    *pauli.Op
	plan *pauli.Plan
	n    int
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{
		mols: map[string]*chem.MolecularData{},
		obs:  map[string]obsEntry{},
		fci:  map[string]float64{},
	}
}

// molKey is the cache key for a molecule spec: its canonical JSON (the
// same normalization the rs1 hash uses).
func molKey(ms MoleculeSpec) string {
	c := RunSpec{Molecule: ms}.Canonical()
	b, err := json.Marshal(c.Molecule)
	if err != nil {
		return ""
	}
	return string(b)
}

// molecule returns the (possibly cached) molecular model for a spec.
func (bc *BuildCache) molecule(ms MoleculeSpec) (*chem.MolecularData, error) {
	if bc == nil {
		return BuildMolecule(ms)
	}
	key := molKey(ms)
	bc.mu.Lock()
	m, ok := bc.mols[key]
	bc.mu.Unlock()
	if ok {
		return m, nil
	}
	m, err := BuildMolecule(ms)
	if err != nil {
		return nil, err
	}
	bc.mu.Lock()
	bc.mols[key] = m
	bc.mu.Unlock()
	return m, nil
}

// observable returns the qubit Hamiltonian, its plan and its qubit count
// for a molecule under the given encoding and active-space compression.
func (bc *BuildCache) observable(ms MoleculeSpec, m *chem.MolecularData, encoding string, downfold int) (obsEntry, error) {
	key := ""
	if bc != nil {
		key = molKey(ms) + "|" + encoding + "|" + strconv.Itoa(downfold)
		bc.mu.Lock()
		e, ok := bc.obs[key]
		bc.mu.Unlock()
		if ok {
			return e, nil
		}
	}
	h, n, err := buildObservable(m, encoding, downfold)
	if err != nil {
		return obsEntry{}, err
	}
	e := obsEntry{h: h, plan: pauli.NewPlan(h), n: n}
	if bc != nil {
		bc.mu.Lock()
		bc.obs[key] = e
		bc.mu.Unlock()
	}
	return e, nil
}

// buildObservable maps the molecule, or with downfold > 0 its downfolded
// active space, to qubits under the encoding, and returns the qubit count.
func buildObservable(m *chem.MolecularData, encoding string, downfold int) (*pauli.Op, int, error) {
	if downfold <= 0 {
		h, err := BuildObservable(m, encoding)
		return h, m.NumSpinOrbitals(), err
	}
	dres, err := chem.Downfold(m, chem.DownfoldOptions{ActiveOrbitals: downfold, Order: 2})
	if err != nil {
		return nil, 0, err
	}
	n := 2 * downfold
	enc, err := encodingFor(encoding, n)
	switch {
	case err != nil:
		return nil, 0, err
	case enc == nil: // Jordan–Wigner: the downfold already mapped it
		return dres.Qubit, n, nil
	}
	h, err := encodeHermitian(enc, dres.Fermionic)
	return h, n, err
}

// fciEnergy returns the molecule's FCI reference energy. jw is the job's
// observable plan when that is m's full Jordan–Wigner operator
// (QubitHamiltonian), and nil otherwise: the reference then compiles its
// own.
func (bc *BuildCache) fciEnergy(ms MoleculeSpec, m *chem.MolecularData, jw *pauli.Plan) (float64, error) {
	key := ""
	if bc != nil {
		key = molKey(ms)
		bc.mu.Lock()
		e, ok := bc.fci[key]
		bc.mu.Unlock()
		if ok {
			return e, nil
		}
	}
	if jw == nil {
		jw = pauli.NewPlan(chem.QubitHamiltonian(m))
	}
	fci, err := chem.FCIofPlan(jw, m.NumSpinOrbitals(), m.NumElectrons)
	if err != nil {
		return 0, err
	}
	if bc != nil {
		bc.mu.Lock()
		bc.fci[key] = fci.Energy
		bc.mu.Unlock()
	}
	return fci.Energy, nil
}
