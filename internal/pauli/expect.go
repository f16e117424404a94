package pauli

import (
	"math/bits"
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// ExpectationString computes ⟨ψ|P|ψ⟩ for one Pauli string directly from
// the amplitudes (the paper's deterministic method, §4.2.2): the nested
// double sum collapses to a single pass because P maps each basis state to
// exactly one basis state.
//
//vqesim:hotpath
func ExpectationString(s *state.State, p String) complex128 {
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

// expectationStringParallel chunks the amplitude loop over the state's
// persistent worker pool (paper §4.2.3 parallelizes the same reduction
// over GPU cores). Each chunk accumulates locally and writes its partial
// once into a cache-line-padded slot — workers never share a line.
//
//vqesim:hotpath
func expectationStringParallel(amps []complex128, p String, pool *state.Pool, chunks int) complex128 {
	return pool.ReduceComplex(uint64(len(amps)), chunks, func(lo, hi uint64) complex128 {
		var acc complex128
		for i := lo; i < hi; i++ {
			ai := amps[i]
			if ai == 0 {
				continue
			}
			j, ph := p.ApplyToBasis(i)
			aj := amps[j]
			acc += complex(real(aj), -imag(aj)) * ph * ai
		}
		return acc
	})
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
// direct method. The strategy is chosen by term count against the
// tuning.NaiveMaxTerms constant: observables at or below it run
// the per-term evaluator (plan construction doesn't repay itself for a
// handful of strings), everything larger is batched by X mask so every
// group of terms sharing an index permutation is scored during one pass
// over the amplitudes (see batched.go). The result is real for
// Hermitian H; the real part is returned. Callers that evaluate the
// same observable repeatedly should build the Plan once with NewPlan
// and call Evaluate to amortize the grouping.
func Expectation(s *state.State, op *Op, opts ExpectationOptions) float64 {
	checkWidth(s, op)
	if op.NumTerms() <= tuning.NaiveMaxTerms {
		mChoiceNaive.Inc()
		return ExpectationNaive(s, op, opts)
	}
	mChoiceBatched.Inc()
	return NewPlan(op).Evaluate(s, opts)
}

// ExpectationNaive evaluates term by term, one full amplitude sweep per
// Pauli string — the pre-batching engine, kept as the reference
// implementation for property tests and the batched-vs-per-term
// benchmarks.
func ExpectationNaive(s *state.State, op *Op, opts ExpectationOptions) float64 {
	checkWidth(s, op)
	start := telemetry.Now()
	defer mNaiveEval.Since(start)
	amps := s.Amplitudes()
	pool, chunks := expectationPool(s, opts, len(amps))
	total := 0.0
	for p, c := range op.terms {
		var e complex128
		if pool != nil {
			e = expectationStringParallel(amps, p, pool, chunks)
		} else {
			e = ExpectationString(s, p)
		}
		total += real(c * e)
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

// Plan compiles the group's terms (identity excluded, matching the
// rotated readout which skips it) into a batched pair-sweep plan. For a
// qubit-wise-commuting group, evaluating this plan on the post-ansatz
// state equals rotating a state copy with mb.Rotation and reading the
// diagonal ZMasks expectations — the basis-change layer is fused into
// the sweep, so a rotated-measurement evaluation costs one pass per
// X mask instead of a rotation circuit plus a probability pass per
// group (TestGroupPlanMatchesRotatedSweep pins the equivalence).
func (mb *MeasurementBasis) Plan() *Plan {
	terms := make([]Term, 0, len(mb.Terms))
	for _, t := range mb.Terms {
		if t.P.IsIdentity() {
			continue
		}
		terms = append(terms, t)
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

// ExpectationSampled estimates ⟨H⟩ by the traditional repeated-measurement
// workflow the paper contrasts against (§4.2.1): for every QWC group,
// rotate a copy of the state into the measurement basis, draw shots
// samples, and average parity eigenvalues. The identity term contributes
// its coefficient exactly.
func ExpectationSampled(s *state.State, op *Op, n, shots int) float64 {
	checkWidth(s, op)
	total := real(op.Coeff(Identity))
	for _, mb := range GroupQWC(op, n) {
		work := s.Clone()
		work.Run(mb.Rotation)
		counts := work.SampleCounts(shots)
		for i, t := range mb.Terms {
			if t.P.IsIdentity() {
				continue
			}
			zm := mb.ZMasks[i]
			acc := 0
			for outcome, c := range counts {
				if bits.OnesCount64(outcome&zm)%2 == 0 {
					acc += c
				} else {
					acc -= c
				}
			}
			total += real(t.Coeff) * float64(acc) / float64(shots)
		}
	}
	return total
}

// ExpectationViaRotation computes ⟨H⟩ exactly but through the basis-
// rotation route: rotate a state copy per group, then read diagonal
// expectations from probabilities. This is what caching accelerates — the
// ansatz state is restored (not re-prepared) before each rotation.
func ExpectationViaRotation(s *state.State, op *Op, n int) float64 {
	total := real(op.Coeff(Identity))
	for _, mb := range GroupQWC(op, n) {
		work := s.Clone()
		work.Run(mb.Rotation)
		probs := work.Probabilities()
		for i, t := range mb.Terms {
			if t.P.IsIdentity() {
				continue
			}
			zm := mb.ZMasks[i]
			e := 0.0
			for idx, pr := range probs {
				if bits.OnesCount64(uint64(idx)&zm)%2 == 0 {
					e += pr
				} else {
					e -= pr
				}
			}
			total += real(t.Coeff) * e
		}
	}
	return total
}

// Variance computes ⟨H²⟩ − ⟨H⟩², useful for convergence diagnostics
// (vanishes on eigenstates).
func Variance(s *state.State, op *Op, opts ExpectationOptions) float64 {
	h2 := op.Mul(op)
	e := Expectation(s, op, opts)
	return Expectation(s, h2, opts) - e*e
}

// Dim guard shared by callers that mix ops and states.
func checkWidth(s *state.State, op *Op) {
	if op.MaxQubit() >= s.NumQubits() {
		panic(core.QubitError(op.MaxQubit(), s.NumQubits()))
	}
}
