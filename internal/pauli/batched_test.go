package pauli

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// randomOp builds a randomized observable on n qubits: random X/Z masks
// (a biased share of Z-only strings, like molecular Hamiltonians) with
// complex coefficients.
func randomOp(rng *core.RNG, n, terms int) *Op {
	op := NewOp()
	mask := uint64(1)<<uint(n) - 1
	for t := 0; t < terms; t++ {
		var p String
		if rng.Intn(3) == 0 {
			p = String{Z: rng.Uint64() & mask} // diagonal
		} else {
			p = String{X: rng.Uint64() & mask, Z: rng.Uint64() & mask}
		}
		c := complex(rng.Float64()*2-1, rng.Float64()*2-1)
		op.Add(p, c)
	}
	return op
}

// randomWideState prepares a pseudo-random state on n qubits by rotating
// every qubit and entangling a chain.
func randomWideState(rng *core.RNG, n int, opts state.Options) *state.State {
	s := state.New(n, opts)
	amps := s.Amplitudes()
	norm := 0.0
	for i := range amps {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		amps[i] = complex(re, im)
		norm += re*re + im*im
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= scale
	}
	return s
}

// TestBatchedMatchesNaiveRandomized is the engine's property test: on
// randomized observables (random X/Z masks, complex coefficients, 2–10
// qubits) the batched X-mask-grouped evaluation must agree with the naive
// per-term expectationString sum to near machine precision.
func TestBatchedMatchesNaiveRandomized(t *testing.T) {
	rng := core.NewRNG(0xBA7C4)
	for n := 2; n <= 10; n++ {
		for trial := 0; trial < 4; trial++ {
			op := randomOp(rng, n, 5+n*4)
			s := randomWideState(rng, n, state.Options{})
			naive := ExpectationNaive(s, op)
			batched := Expectation(s, op, ExpectationOptions{Workers: 1})
			if math.Abs(naive-batched) > 1e-10 {
				t.Errorf("n=%d trial=%d: batched %v vs naive %v (Δ=%g)",
					n, trial, batched, naive, math.Abs(naive-batched))
			}
		}
	}
}

// TestBatchedParallelMatchesSerial drives the padded per-chunk accumulator
// path on a state large enough to cross the parallel threshold.
func TestBatchedParallelMatchesSerial(t *testing.T) {
	rng := core.NewRNG(0x9A11)
	const n = 13 // 8192 amplitudes > 1<<12 cutoff
	op := randomOp(rng, n, 200)
	s := randomWideState(rng, n, state.Options{Workers: 4})
	serial := Expectation(s, op, ExpectationOptions{Workers: 1})
	par := Expectation(s, op, ExpectationOptions{Workers: 4})
	if math.Abs(serial-par) > 1e-10 {
		t.Errorf("parallel %v vs serial %v", par, serial)
	}
	// Workers 0 must now mean GOMAXPROCS (parallel), not serial.
	def := Expectation(s, op, ExpectationOptions{})
	if math.Abs(serial-def) > 1e-10 {
		t.Errorf("default workers %v vs serial %v", def, serial)
	}
}

// TestPlanReusedAcrossStates checks that one precompiled plan evaluates
// correctly against many states (the VQE driver usage pattern).
func TestPlanReusedAcrossStates(t *testing.T) {
	rng := core.NewRNG(0x51AB)
	op := randomOp(rng, 6, 40)
	pl := NewPlan(op)
	if pl.NumTerms() != op.NumTerms() {
		t.Fatalf("plan covers %d of %d terms", pl.NumTerms(), op.NumTerms())
	}
	if pl.NumGroups() >= pl.NumTerms() {
		t.Errorf("grouping achieved no reduction: %d groups for %d terms", pl.NumGroups(), pl.NumTerms())
	}
	for trial := 0; trial < 5; trial++ {
		s := randomWideState(rng, 6, state.Options{})
		got := pl.Evaluate(s, ExpectationOptions{Workers: 1})
		want := ExpectationNaive(s, op)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("trial %d: plan %v vs naive %v", trial, got, want)
		}
	}
}

// TestBatchedIdentityAndScalar covers the degenerate diagonal cases: a
// pure scalar observable and an identity-plus-Z mix.
func TestBatchedIdentityAndScalar(t *testing.T) {
	s := state.New(3, state.Options{})
	if e := Expectation(s, Scalar(-2.5), ExpectationOptions{}); math.Abs(e+2.5) > 1e-12 {
		t.Errorf("⟨c·I⟩ = %v, want -2.5", e)
	}
	op := NewOp().Add(Identity, 1.25).Add(MustParse("ZII"), 0.5)
	if e := Expectation(s, op, ExpectationOptions{}); math.Abs(e-1.75) > 1e-12 {
		t.Errorf("⟨I+Z⟩ on |000⟩ = %v, want 1.75", e)
	}
}

// TestVarianceThroughBatchedPath is the Variance regression test: H² runs
// through the batched engine and must vanish on an eigenstate and match
// the dense calculation on a generic state.
func TestVarianceThroughBatchedPath(t *testing.T) {
	op := testHamiltonian()
	// Eigenstate check: |0000⟩ is an eigenstate of Z-only pieces; use a
	// pure-Z observable for the exact-zero property.
	zOp := NewOp().Add(MustParse("ZZII"), 0.7).Add(MustParse("IIZZ"), -0.4)
	s0 := state.New(4, state.Options{})
	if v := Variance(s0, zOp, ExpectationOptions{}); math.Abs(v) > 1e-10 {
		t.Errorf("variance on eigenstate through batched path: %v", v)
	}
	// Generic state: Var(H) = ⟨H²⟩ − ⟨H⟩² against the dense route.
	s := randomState(17)
	got := Variance(s, op, ExpectationOptions{})
	h2 := op.Mul(op)
	want := denseExpectation(s, h2) - math.Pow(denseExpectation(s, op), 2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("batched variance %v vs dense %v", got, want)
	}
}

// TestPlanMatVecMatchesOpMatVec checks the batched scatter pass against
// the per-term Op.MatVec, serial and parallel.
func TestPlanMatVecMatchesOpMatVec(t *testing.T) {
	rng := core.NewRNG(0x3A7)
	for _, n := range []int{4, 13} {
		op := randomOp(rng, n, 60)
		s := randomWideState(rng, n, state.Options{Workers: 4})
		src := s.Amplitudes()
		want := make([]complex128, len(src))
		op.MatVec(want, src)
		got := make([]complex128, len(src))
		pl := NewPlan(op)
		pl.MatVec(got, src, nil)
		for i := range want {
			if !core.AlmostEqualC(got[i], want[i], 1e-10) {
				t.Fatalf("n=%d serial: dst[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if pool := s.WorkerPool(); pool != nil {
			for i := range got {
				got[i] = 0
			}
			pl.MatVec(got, src, pool)
			for i := range want {
				if !core.AlmostEqualC(got[i], want[i], 1e-10) {
					t.Fatalf("n=%d parallel: dst[%d] = %v, want %v", n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanMatVecBitEqualToGroupScatter holds MatVec — one dispatch per
// call, partitioned on the destination — to the bits of the pass it
// replaced: one scatter over the sources per X-mask group, in group order.
// Each destination must see the same additions in the same order however
// the range is chunked, because adjoint gradients and Adapt's operator
// selection are downstream of it.
func TestPlanMatVecBitEqualToGroupScatter(t *testing.T) {
	rng := core.NewRNG(0xB17)
	op := randomOp(rng, 13, 80)
	pl := NewPlan(op)
	src := randomWideState(rng, 13, state.Options{Workers: 1}).AmplitudesCopy()
	for i := range src {
		if i%3 != 0 {
			src[i] = 0 // a sector-confined state is mostly exact zeros
		}
	}
	want := make([]complex128, len(src))
	for gi := range pl.groups {
		g := &pl.groups[gi]
		for i, v := range src {
			if v == 0 {
				continue
			}
			var c complex128
			for t, z := range g.zs {
				if bits.OnesCount64(uint64(i)&z)&1 == 0 {
					c += g.cs[t]
				} else {
					c -= g.cs[t]
				}
			}
			want[uint64(i)^g.x] += c * v
		}
	}
	check := func(name string, pool *state.Pool) {
		got := make([]complex128, len(src))
		for i := range got {
			got[i] = complex(1, 1) // MatVec must overwrite, not accumulate
		}
		pl.MatVec(got, src, pool)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dst[%d] = %v, group scatter gives %v", name, i, got[i], want[i])
			}
		}
	}
	check("serial", nil)
	for _, w := range []int{2, 3} {
		pool := state.NewPool(w)
		check(fmt.Sprintf("pool of %d", w), pool)
		pool.Close()
	}
}

// TestNaiveWorkersDefaultParallel pins how expectation options resolve
// Workers: the zero value means GOMAXPROCS, 1 forces serial.
func TestNaiveWorkersDefaultParallel(t *testing.T) {
	if (ExpectationOptions{}).resolveWorkers() < 1 {
		t.Fatal("resolveWorkers returned < 1")
	}
	if w := (ExpectationOptions{Workers: 1}).resolveWorkers(); w != 1 {
		t.Fatalf("Workers 1 must force serial, resolved to %d", w)
	}
}
