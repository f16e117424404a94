package pauli_test

import (
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/pauli"
	"repro/internal/state"
)

// TestReadoutPlanMatchesRotatedRead: a measurement group's diagonal plan,
// evaluated on the rotated state, is the rotate-then-read reference's sum
// in the same order — bit for bit when serial — for every QWC group and
// every per-term group of the H2 Hamiltonian and of a random 6-qubit
// Hermitian observable.
func TestReadoutPlanMatchesRotatedRead(t *testing.T) {
	rng := core.NewRNG(0x70AD)
	random := pauli.NewOp()
	for k := 0; k < 40; k++ {
		random.Add(pauli.String{X: rng.Uint64() & 63, Z: rng.Uint64() & 63}, complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	for name, h := range map[string]*pauli.Op{"h2": chem.QubitHamiltonian(chem.H2()), "random6": random.HermitianPart()} {
		n := h.MaxQubit() + 1
		prep := circuit.New(n)
		for q := 0; q < n; q++ {
			prep.RY(rng.Float64()*3, q).RZ(rng.Float64()*3, q)
		}
		for q := 0; q+1 < n; q++ {
			prep.CX(q, q+1).RX(rng.Float64()*3, q)
		}
		s := state.New(n, state.Options{Workers: 1})
		s.Run(prep)

		groups := pauli.GroupQWC(h, n)
		for _, term := range h.Terms() {
			groups = append(groups, pauli.MeasurementBasis{
				Rotation: pauli.BasisRotation(term.P, n),
				ZMasks:   []uint64{term.P.X | term.P.Z},
				Terms:    []pauli.Term{term},
			})
		}
		for i, mb := range groups {
			rotated := s.Clone()
			rotated.Run(mb.Rotation)
			got := mb.Plan().Evaluate(rotated, pauli.ExpectationOptions{Workers: 1})
			if want := pauli.GroupViaRotation(s, mb); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s group %d (%d terms): readout plan %v, rotate-then-read %v", name, i, len(mb.Terms), got, want)
			}
		}
	}
}
