package vqe

import (
	"context"
	"math"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/linalg"
)

func TestDeflationH2Spectrum(t *testing.T) {
	// VQD with a UCCSD ansatz from the HF reference explores the
	// 2-electron sector of H2: the lowest two states it can reach are the
	// sector's ground and lowest excited singlet configurations.
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	states, err := Deflation(context.Background(), h, u, DeflationOptions{NumStates: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("%d states", len(states))
	}
	// Reference: diagonalize the sector Hamiltonian exactly.
	sp, _, err := chem.SectorMatrix(chem.FermionicHamiltonian(m), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := linalg.EighJacobi(sp.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(states[0].Energy-res.Values[0]) > 1e-6 {
		t.Errorf("ground %v vs exact %v", states[0].Energy, res.Values[0])
	}
	// Variational deflation bound: with the ground state deflated exactly,
	// the second optimized energy upper-bounds the exact first excited
	// eigenvalue (the spin-restricted UCCSD manifold cannot always reach
	// it exactly, so equality is not demanded).
	if states[1].Energy < res.Values[1]-1e-6 {
		t.Errorf("excited estimate %v below exact first excited %v", states[1].Energy, res.Values[1])
	}
	if states[1].Energy > res.Values[len(res.Values)-1]+1e-6 {
		t.Errorf("excited estimate %v above the sector spectrum top %v", states[1].Energy, res.Values[len(res.Values)-1])
	}
	if states[1].Energy <= states[0].Energy+1e-8 {
		t.Error("excited state not above ground state")
	}
}

func TestDeflationOrthogonality(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	states, err := Deflation(context.Background(), h, u, DeflationOptions{NumStates: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s0 := stateFor(u, states[0].Params)
	s1 := stateFor(u, states[1].Params)
	ov := s0.InnerProduct(s1)
	if mag := math.Hypot(real(ov), imag(ov)); mag > 0.05 {
		t.Errorf("deflated states overlap: |⟨0|1⟩| = %v", mag)
	}
}

func TestDeflationSingleStateEqualsVQE(t *testing.T) {
	m := chem.H2()
	h := chem.QubitHamiltonian(m)
	fci, _ := chem.FCI(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	states, err := Deflation(context.Background(), h, u, DeflationOptions{NumStates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(states[0].Energy-fci.Energy) > 1e-6 {
		t.Errorf("VQD(1) %v vs FCI %v", states[0].Energy, fci.Energy)
	}
}

func TestDeflationEnergiesSorted(t *testing.T) {
	// Energies come out in ascending order for a well-behaved run.
	m := chem.Hubbard(2, 1, 2, 2)
	h := chem.QubitHamiltonian(m)
	u, _ := ansatz.NewUCCSD(4, 2)
	states, err := Deflation(context.Background(), h, u, DeflationOptions{NumStates: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	es := make([]float64, len(states))
	for i, s := range states {
		es[i] = s.Energy
	}
	for i := 1; i < len(es); i++ {
		// Degenerate levels may come out reordered by float noise.
		if es[i] < es[i-1]-1e-9 {
			t.Errorf("energies not ascending: %v", es)
		}
	}
}

func TestDeflationValidation(t *testing.T) {
	u, _ := ansatz.NewUCCSD(4, 2)
	if _, err := Deflation(context.Background(), chem.QubitHamiltonian(chem.H2()), u, DeflationOptions{NumStates: 0}); err == nil {
		t.Error("zero states accepted")
	}
}
