package vqe

import "repro/internal/pauli"

// GateCost models the gate count of one VQE energy evaluation, the
// quantity compared in the paper's Figure 3. Per Hamiltonian term the
// non-caching workflow re-prepares the ansatz and applies that term's
// basis rotation; caching prepares the ansatz once and pays only the
// rotations.
type GateCost struct {
	AnsatzGates     int
	NumTerms        int
	RotationGates   uint64 // Σ over terms of basis-change gate counts
	NonCachingTotal uint64
	CachingTotal    uint64
}

// rotationGateCount counts the basis-change gates for one Pauli string:
// one gate per X letter (H) and two per Y letter (S† H).
func rotationGateCount(p pauli.String) int {
	n := 0
	for _, q := range p.Support() {
		switch p.At(q) {
		case 'X':
			n++
		case 'Y':
			n += 2
		}
	}
	return n
}

// CostModel computes the Figure 3 gate-count comparison for evaluating
// every non-identity term of h with ansatz circuit cost ansatzGates.
// Per-term accounting (no measurement grouping) mirrors the paper's
// description: "basis transformation gates for each term in the
// Hamiltonian".
func CostModel(h *pauli.Op, ansatzGates int) GateCost {
	gc := GateCost{AnsatzGates: ansatzGates}
	for _, t := range h.Terms() {
		if t.P.IsIdentity() {
			continue
		}
		gc.NumTerms++
		r := uint64(rotationGateCount(t.P))
		gc.RotationGates += r
		gc.NonCachingTotal += uint64(ansatzGates) + r
		gc.CachingTotal += r
	}
	// Caching still pays one ansatz preparation.
	gc.CachingTotal += uint64(ansatzGates)
	return gc
}

// SavingsFactor returns NonCaching/Caching — the orders-of-magnitude
// reduction highlighted by Figure 3.
func (g GateCost) SavingsFactor() float64 {
	if g.CachingTotal == 0 {
		return 0
	}
	return float64(g.NonCachingTotal) / float64(g.CachingTotal)
}
