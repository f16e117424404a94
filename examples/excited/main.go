// Excited states by variational quantum deflation (VQD): sequentially
// minimize ⟨H⟩ plus overlap penalties against previously found states.
// Run on the Hubbard dimer, whose exact spectrum is known in closed form.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ansatz"
	"repro/internal/chem"
	"repro/internal/linalg"
	"repro/internal/vqe"
)

func main() {
	site := chem.Hubbard(2, 1.0, 4.0, 2)
	scf, err := chem.RHF(site, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	m := scf.Molecule // MO basis: the aufbau reference is the true RHF state
	fmt.Printf("model: %s (half filling, E_RHF = %.6f)\n\n", m.Name, scf.Energy)
	h := chem.QubitHamiltonian(m)
	u, err := ansatz.NewUCCSD(4, 2)
	if err != nil {
		log.Fatal(err)
	}

	states, err := vqe.Deflation(context.Background(), h, u, vqe.DeflationOptions{NumStates: 3, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Exact reference: diagonalize the 2-electron sector.
	sp, _, err := chem.SectorMatrix(chem.FermionicHamiltonian(m), 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := linalg.EighJacobi(sp.Dense())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("state   E(VQD)       sector spectrum (exact)")
	for i, s := range states {
		fmt.Printf("%5d   %+.6f", i, s.Energy)
		if i < len(exact.Values) {
			fmt.Printf("     %+.6f", exact.Values[i])
		}
		fmt.Println()
	}
	fmt.Println("\neach VQD state is found by deflating the ones before it with overlap")
	fmt.Println("penalties; the spin-conserving UCCSD manifold only reaches singlet")
	fmt.Println("states, so triplet sector levels are skipped — compare the columns")
}
