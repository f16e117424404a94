package pauli

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// expectationString computes ⟨ψ|P|ψ⟩ for one Pauli string directly from
// the amplitudes (the paper's deterministic method, §4.2.2): the nested
// double sum collapses to a single pass because P maps each basis state to
// exactly one basis state.
//
//vqesim:hotpath
func expectationString(s *state.State, p String) complex128 {
	amps := s.Amplitudes()
	var acc complex128
	for i := uint64(0); i < uint64(len(amps)); i++ {
		ai := amps[i]
		if ai == 0 {
			continue
		}
		j, ph := p.ApplyToBasis(i)
		aj := amps[j]
		acc += complex(real(aj), -imag(aj)) * ph * ai
	}
	return acc
}

// ExpectationOptions tunes direct expectation evaluation.
type ExpectationOptions struct {
	// Workers is the reduction parallelism, matching state.Options
	// semantics: 0 means GOMAXPROCS, 1 forces serial.
	Workers int
}

// resolveWorkers applies the 0 = GOMAXPROCS default through the
// engine's single resolution point.
func (o ExpectationOptions) resolveWorkers() int {
	return state.ResolveWorkers(o.Workers)
}

// Expectation computes ⟨ψ|H|ψ⟩ for a Pauli-sum observable using the
// direct method: the terms are batched by X mask so every group sharing an
// index permutation is scored during one pass over the amplitudes (see
// batched.go). The result is real for Hermitian H; the real part is
// returned. Callers that evaluate the same observable repeatedly should
// build the Plan once with NewPlan and call Evaluate to amortize the
// grouping.
func Expectation(s *state.State, op *Op, opts ExpectationOptions) float64 {
	return NewPlan(op).Evaluate(s, opts)
}

// ExpectationNaive evaluates term by term, one full serial amplitude sweep
// per Pauli string — the pre-batching engine, kept as the reference
// implementation for property tests and the batched-vs-per-term
// benchmarks.
func ExpectationNaive(s *state.State, op *Op) float64 {
	if op.MaxQubit() >= s.NumQubits() {
		panic(core.QubitError(op.MaxQubit(), s.NumQubits()))
	}
	start := telemetry.Now()
	defer mNaiveEval.Since(start)
	total := 0.0
	for p, c := range op.terms {
		total += real(c * expectationString(s, p))
	}
	return total
}

// MeasurementBasis describes how to measure a group of qubit-wise
// commuting strings: the basis-rotation circuit mapping each X/Y letter to
// Z, plus the strings (now diagonal) to read out.
type MeasurementBasis struct {
	Rotation *circuit.Circuit
	// ZMasks[i] is the Z mask of Terms[i] after rotation: the expectation
	// of term i is E[(−1)^{|outcome ∧ ZMasks[i]|}].
	ZMasks []uint64
	Terms  []Term
}

// Plan compiles the group's readout: on a state mb.Rotation has been
// applied to, term i is the Z-string ZMasks[i] with a real coefficient, so
// the group's contribution to ⟨H⟩ is one diagonal plan evaluated on the
// rotated amplitudes. The identity is left out; its coefficient needs no
// state.
func (mb *MeasurementBasis) Plan() *Plan {
	terms := make([]Term, 0, len(mb.Terms))
	for i, t := range mb.Terms {
		if t.P.IsIdentity() {
			continue
		}
		terms = append(terms, Term{P: String{Z: mb.ZMasks[i]}, Coeff: complex(real(t.Coeff), 0)})
	}
	return NewPlanFromTerms(terms)
}

// BasisRotation builds the rotation circuit for a single string: H for X,
// S†·H for Y (paper §4.1.2). After the rotation the string acts as Z on
// its support.
func BasisRotation(p String, n int) *circuit.Circuit {
	c := circuit.New(n)
	for _, q := range p.Support() {
		switch p.At(q) {
		case 'X':
			c.H(q)
		case 'Y':
			c.Sdg(q).H(q)
		}
	}
	return c
}

// GroupQWC partitions the observable's terms into qubit-wise commuting
// groups (greedy first-fit over terms sorted by descending weight) and
// returns one MeasurementBasis per group. All strings in a group share a
// single rotation circuit — the measurement-reduction extension to the
// per-term workflow.
func GroupQWC(op *Op, n int) []MeasurementBasis {
	terms := op.Terms()
	sort.Slice(terms, func(i, j int) bool {
		wi, wj := terms[i].P.Weight(), terms[j].P.Weight()
		if wi != wj {
			return wi > wj
		}
		return terms[i].P.Less(terms[j].P)
	})
	type group struct {
		rep   String // union of letters fixed so far
		terms []Term
	}
	var groups []*group
outer:
	for _, t := range terms {
		for _, g := range groups {
			if t.P.QubitwiseCommutes(g.rep) {
				g.rep = String{X: g.rep.X | t.P.X, Z: g.rep.Z | t.P.Z}
				g.terms = append(g.terms, t)
				continue outer
			}
		}
		groups = append(groups, &group{rep: t.P, terms: []Term{t}})
	}
	out := make([]MeasurementBasis, len(groups))
	for i, g := range groups {
		mb := MeasurementBasis{
			Rotation: BasisRotation(g.rep, n),
			Terms:    g.terms,
		}
		for _, t := range g.terms {
			mb.ZMasks = append(mb.ZMasks, t.P.X|t.P.Z)
		}
		out[i] = mb
	}
	return out
}

// Variance computes ⟨H²⟩ − ⟨H⟩², useful for convergence diagnostics
// (vanishes on eigenstates).
func Variance(s *state.State, op *Op, opts ExpectationOptions) float64 {
	h2 := op.Mul(op)
	e := Expectation(s, op, opts)
	return Expectation(s, h2, opts) - e*e
}
