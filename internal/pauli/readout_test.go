package pauli_test

import (
	"errors"
	"math"
	"math/bits"
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

// parityFromCounts is the per-term histogram read the sampled walk used
// before it went through the readout plan: the counts normalized into a
// 2ⁿ distribution, each Z-string's parity summed over it in index order,
// and the group's terms weighted in order.
func parityFromCounts(mb pauli.MeasurementBasis, counts map[uint64]int, n int) float64 {
	probs := make([]float64, 1<<n)
	shots := 0
	for _, c := range counts {
		shots += c
	}
	for o, c := range counts {
		probs[o] = float64(c) / float64(shots)
	}
	total := 0.0
	for k, term := range mb.Terms {
		if term.P.IsIdentity() {
			continue
		}
		e := 0.0
		for i, p := range probs {
			if bits.OnesCount64(uint64(i)&mb.ZMasks[k])%2 == 0 {
				e += p
			} else {
				e -= p
			}
		}
		total += real(term.Coeff) * e
	}
	return total
}

// TestEvaluateCountsMatchesParityReference: a measurement group's readout
// plan read on a shot histogram is the per-term parity reference's sum, bit
// for bit, for every QWC group of the H2 Hamiltonian and of a random 6-qubit
// Hermitian observable, on histograms whose totals are not powers of two
// (so every count/total is inexact and the summation order shows).
func TestEvaluateCountsMatchesParityReference(t *testing.T) {
	rng := core.NewRNG(0xC0DE)
	random := pauli.NewOp()
	for k := 0; k < 40; k++ {
		random.Add(pauli.String{X: rng.Uint64() & 63, Z: rng.Uint64() & 63}, complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	for name, h := range map[string]*pauli.Op{"h2": chem.QubitHamiltonian(chem.H2()), "random6": random.HermitianPart()} {
		n := h.MaxQubit() + 1
		for i, mb := range pauli.GroupQWC(h, n) {
			for trial := 0; trial < 4; trial++ {
				counts := map[uint64]int{}
				for k := 0; k < 997+trial*250; k++ {
					counts[rng.Uint64()&(1<<n-1)]++
				}
				got := mb.Plan().EvaluateCounts(counts)
				if want := parityFromCounts(mb, counts, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s group %d trial %d: plan on counts %v, per-term reference %v", name, i, trial, got, want)
				}
			}
		}
	}
}

// TestEvaluateCountsRejectsOffDiagonalPlan: counts carry no phase, so a plan
// with an X mask cannot be read from them.
func TestEvaluateCountsRejectsOffDiagonalPlan(t *testing.T) {
	op := pauli.NewOp()
	op.Add(pauli.String{Z: 1}, 0.5)
	op.Add(pauli.String{X: 3}, 0.25)
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, core.ErrInvalidArgument) {
			t.Fatalf("recovered %v, want core.ErrInvalidArgument", err)
		}
	}()
	pauli.NewPlan(op).EvaluateCounts(map[uint64]int{0: 3, 1: 2})
}
