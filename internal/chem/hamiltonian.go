package chem

import (
	"math"

	"repro/internal/core"
	"repro/internal/fermion"
	"repro/internal/pauli"
)

// Spin-orbital convention: spatial orbital p yields modes 2p (α) and
// 2p+1 (β); mode index = JW qubit index.

// SpinOrbital returns the mode index of spatial orbital p with spin σ
// (0 = α, 1 = β).
func SpinOrbital(p, sigma int) int { return 2*p + sigma }

// FermionicHamiltonian builds the second-quantized electronic Hamiltonian
//
//	H = E_nuc + Σ_{pqσ} h_pq a†_{pσ} a_{qσ}
//	    + ½ Σ_{pqrs,στ} (pq|rs) a†_{pσ} a†_{rτ} a_{sτ} a_{qσ}
//
// from chemist-notation spatial integrals.
func FermionicHamiltonian(m *MolecularData) *fermion.Op {
	n := m.NumOrbitals
	// At most 2n² one-body and 4n⁴ two-body products.
	terms := make([]fermion.Term, 1, 1+2*n*n+4*n*n*n*n)
	terms[0] = fermion.Term{Coeff: complex(m.NuclearRepulsion, 0)}
	ladders := make([]fermion.Ladder, 0, 4*n*n+16*n*n*n*n) // every product, one after another
	product := func(ops ...fermion.Ladder) []fermion.Ladder {
		ladders = append(ladders, ops...)
		return ladders[len(ladders)-len(ops) : len(ladders) : len(ladders)]
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			v := m.OneBody[p][q]
			if math.Abs(v) < core.CoeffEps {
				continue
			}
			for sigma := 0; sigma < 2; sigma++ {
				terms = append(terms, fermion.Term{
					Coeff: complex(v, 0),
					Ops:   product(fermion.Ladder{Mode: SpinOrbital(p, sigma), Dagger: true}, fermion.Ladder{Mode: SpinOrbital(q, sigma)}),
				})
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			for r := 0; r < n; r++ {
				for s := 0; s < n; s++ {
					v := m.TwoBody[p][q][r][s]
					if math.Abs(v) < core.CoeffEps {
						continue
					}
					for sigma := 0; sigma < 2; sigma++ {
						for tau := 0; tau < 2; tau++ {
							i := SpinOrbital(p, sigma)
							j := SpinOrbital(r, tau)
							k := SpinOrbital(s, tau)
							l := SpinOrbital(q, sigma)
							if i == j || k == l {
								continue // a†a† or aa on same mode vanishes
							}
							terms = append(terms, fermion.Term{
								Coeff: complex(0.5*v, 0),
								Ops: product(
									fermion.Ladder{Mode: i, Dagger: true},
									fermion.Ladder{Mode: j, Dagger: true},
									fermion.Ladder{Mode: k, Dagger: false},
									fermion.Ladder{Mode: l, Dagger: false},
								),
							})
						}
					}
				}
			}
		}
	}
	return fermion.FromTerms(terms)
}

// QubitHamiltonian builds the Jordan–Wigner qubit observable of a
// molecule. The result acts on NumSpinOrbitals qubits and is Hermitian.
func QubitHamiltonian(m *MolecularData) *pauli.Op {
	return FermionicHamiltonian(m).JordanWigner().HermitianPart()
}

// HartreeFockEnergy returns the restricted HF energy of the aufbau
// determinant (lowest NumElectrons spin orbitals occupied):
//
//	E = E_nuc + Σ_i h_ii + ½ Σ_{ij} (⟨ij|ij⟩ − ⟨ij|ji⟩)
//
// with i, j running over occupied spin orbitals.
func HartreeFockEnergy(m *MolecularData) float64 {
	occ := aufbauOccupation(m.NumElectrons)
	e := m.NuclearRepulsion
	for _, i := range occ {
		e += m.OneBody[i/2][i/2]
	}
	for _, i := range occ {
		for _, j := range occ {
			e += 0.5 * (coulomb(m, i, j) - exchange(m, i, j))
		}
	}
	return e
}

// aufbauOccupation lists the first ne spin orbitals.
func aufbauOccupation(ne int) []int {
	occ := make([]int, ne)
	for i := range occ {
		occ[i] = i
	}
	return occ
}

// coulomb returns ⟨ij|ij⟩ = (pp'|qq') for spin orbitals i=(p,σ), j=(q,τ).
func coulomb(m *MolecularData, i, j int) float64 {
	return m.TwoBody[i/2][i/2][j/2][j/2]
}

// exchange returns ⟨ij|ji⟩, nonzero only for parallel spins.
func exchange(m *MolecularData, i, j int) float64 {
	if i%2 != j%2 {
		return 0
	}
	return m.TwoBody[i/2][j/2][j/2][i/2]
}

// HartreeFockDeterminant returns the occupation bitmask of the aufbau
// determinant (bit q set ⇔ spin orbital q occupied).
func HartreeFockDeterminant(m *MolecularData) uint64 {
	var d uint64
	for i := 0; i < m.NumElectrons; i++ {
		d |= 1 << uint(i)
	}
	return d
}

// TaperedHamiltonian builds the qubit Hamiltonian and removes every
// Z₂-symmetry qubit, selecting the symmetry sector of the Hartree–Fock
// determinant (the ground sector for closed-shell systems). H2 reduces
// from 4 qubits to 1 this way.
func TaperedHamiltonian(m *MolecularData) (*pauli.TaperResult, error) {
	h := QubitHamiltonian(m)
	n := m.NumSpinOrbitals()
	syms := pauli.FindZSymmetries(h, n)
	if len(syms) == 0 {
		return &pauli.TaperResult{Tapered: h, NumQubits: n}, nil
	}
	canon, _, err := pauli.CanonicalZGenerators(syms)
	if err != nil {
		return nil, err
	}
	sector := pauli.SectorFromDeterminant(canon, HartreeFockDeterminant(m))
	return pauli.Taper(h, n, canon, sector)
}
