package pauli

import (
	"math"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/state"
)

// refEvaluate is the batched evaluation as first written: per group, a
// fresh accumulator block per chunk, one pass that adds each nonzero
// amplitude's (or pair's) parity-signed weight into every term's slot,
// sign by ±1.0 multiplication, then the fold. Plan.Evaluate must return
// its bits.
func refEvaluate(pl *Plan, s *state.State, opts ExpectationOptions) float64 {
	amps := s.Amplitudes()
	var pool *state.Pool
	chunks := 0
	if w := opts.resolveWorkers(); w > 1 && len(amps) >= tuning.ReduceParallel {
		pool, chunks = s.EnsurePool(w), w
	}
	total := 0.0
	for gi := range pl.groups {
		total += refGroupEval(&pl.groups[gi], amps, pool, chunks)
	}
	return total
}

func refGroupEval(g *xGroup, amps []complex128, pool *state.Pool, chunks int) float64 {
	nRe, nIm := len(g.zsRe), len(g.zsIm)
	nt := nRe + nIm
	total := uint64(len(amps))
	if g.x != 0 {
		total /= 2
	}
	if pool == nil {
		acc := make([]float64, nt)
		refGroupSweep(g, amps, 0, total, acc[:nRe], acc[nRe:])
		return refFold(g, acc, nt, 1)
	}
	stride := nt + 8
	acc := make([]float64, chunks*stride)
	pool.Run(total, chunks, func(slot int, lo, hi uint64) {
		blk := acc[slot*stride : slot*stride+nt]
		refGroupSweep(g, amps, lo, hi, blk[:nRe], blk[nRe:])
	})
	return refFold(g, acc, stride, chunks)
}

func refGroupSweep(g *xGroup, amps []complex128, lo, hi uint64, accRe, accIm []float64) {
	if g.x == 0 {
		for i := lo; i < hi; i++ {
			a := amps[i]
			w := real(a)*real(a) + imag(a)*imag(a)
			if w == 0 {
				continue
			}
			for t, z := range g.zsRe {
				accRe[t] += (1 - 2*float64(bits.OnesCount64(i&z)&1)) * w
			}
		}
		return
	}
	for rest := lo; rest < hi; rest++ {
		i := core.InsertZeroBit(rest, g.q)
		ai, aj := amps[i], amps[i^g.x]
		if ai == 0 && aj == 0 {
			continue
		}
		wRe := 2 * (real(aj)*real(ai) + imag(aj)*imag(ai))
		wIm := 2 * (real(aj)*imag(ai) - imag(aj)*real(ai))
		for t, z := range g.zsRe {
			accRe[t] += (1 - 2*float64(bits.OnesCount64(i&z)&1)) * wRe
		}
		for t, z := range g.zsIm {
			accIm[t] += (1 - 2*float64(bits.OnesCount64(i&z)&1)) * wIm
		}
	}
}

func refFold(g *xGroup, acc []float64, stride, chunks int) float64 {
	nRe := len(g.csRe)
	total := 0.0
	for t, c := range g.csRe {
		e := 0.0
		for s := 0; s < chunks; s++ {
			e += acc[s*stride+t]
		}
		total += c * e
	}
	for t, c := range g.csIm {
		e := 0.0
		for s := 0; s < chunks; s++ {
			e += acc[s*stride+nRe+t]
		}
		total += c * e
	}
	return total
}

// groupTerms returns nRe strings with X mask x that score the real part
// of the pair product (|x∧z| even) and nIm that score the imaginary part
// (|x∧z| odd), with distinct Z masks and random complex coefficients.
// For x = 0 every term is diagonal and nIm must be 0.
func groupTerms(rng *core.RNG, n int, x uint64, nRe, nIm int) []Term {
	mask := uint64(1)<<uint(n) - 1
	seen := map[uint64]bool{}
	var out []Term
	for nRe > 0 || nIm > 0 {
		z := rng.Uint64() & mask
		odd := bits.OnesCount64(x&z)&1 == 1
		if seen[z] || (odd && nIm == 0) || (!odd && nRe == 0) {
			continue
		}
		seen[z] = true
		if odd {
			nIm--
		} else {
			nRe--
		}
		out = append(out, Term{P: String{X: x, Z: z}, Coeff: complex(rng.Float64()*2-1, rng.Float64()*2-1)})
	}
	return out
}

// TestPlanEvaluateBitEqualReference holds Plan.Evaluate to the bits of
// refEvaluate: groups of 1, 2, 3, 4, 5 and 9 terms on the Re and the Im
// side (so every remainder of a blocked term loop runs), on dense states
// and on states confined to a particle-number sector, serial and pooled.
func TestPlanEvaluateBitEqualReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 9}
	rng := core.NewRNG(0xE7A1)
	for _, n := range []int{8, 13} {
		for si, k := range sizes {
			other := sizes[(si+1)%len(sizes)]
			var terms []Term
			terms = append(terms, groupTerms(rng, n, 0, k, 0)...)
			xs := []uint64{0b1010, 0b110 << uint(n-4), 1<<uint(n-1) | 1}
			terms = append(terms, groupTerms(rng, n, xs[0], k, 0)...)
			terms = append(terms, groupTerms(rng, n, xs[1], 0, k)...)
			terms = append(terms, groupTerms(rng, n, xs[2], k, other)...)
			pl := NewPlanFromTerms(terms)

			dense := randomWideState(rng, n, state.Options{Workers: 3})
			sector := randomWideState(rng, n, state.Options{Workers: 3})
			amps := sector.Amplitudes()
			for i := range amps {
				if bits.OnesCount64(uint64(i)) != n/2 {
					amps[i] = 0
				}
			}
			for name, s := range map[string]*state.State{"dense": dense, "sector": sector} {
				for _, w := range []int{1, 3} {
					opts := ExpectationOptions{Workers: w}
					got, want := pl.Evaluate(s, opts), refEvaluate(pl, s, opts)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("n=%d k=%d %s workers=%d: Evaluate %v, reference %v", n, k, name, w, got, want)
					}
				}
			}
		}
	}
}

// TestPlanEvaluateConcurrent evaluates one plan from several goroutines
// at once, on their own states and on a shared one: each call gets the
// bits a lone call gets (run it under -race).
func TestPlanEvaluateConcurrent(t *testing.T) {
	rng := core.NewRNG(0xC0C)
	const n = 13
	pl := NewPlan(randomOp(rng, n, 60))
	states := []*state.State{
		randomWideState(rng, n, state.Options{Workers: 2}),
		randomWideState(rng, n, state.Options{Workers: 2}),
	}
	opts := ExpectationOptions{Workers: 2}
	want := []float64{refEvaluate(pl, states[0], opts), refEvaluate(pl, states[1], opts)}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := pl.Evaluate(states[k], opts); math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Errorf("goroutine on state %d: Evaluate %v, reference %v", k, got, want[k])
				}
			}
		}(g % 2)
	}
	wg.Wait()
}
