package pauli

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/state"
)

// fuzzTerms draws count strings on n qubits from seed's stream: X masks
// from a pool of four (so groups have several terms), Z masks over the
// whole register, inside four qubits, two bits up to TileBits apart
// (straddling window edges), or wider than TileBits (left over).
func fuzzTerms(rng *core.RNG, n, count int) []Term {
	mask := uint64(1)<<uint(n) - 1
	xs := []uint64{0, rng.Uint64() & mask, rng.Uint64() & mask, uint64(0b101) << uint(rng.Intn(max(n-2, 1))) & mask}
	terms := make([]Term, count)
	for t := range terms {
		var z uint64
		switch rng.Intn(4) {
		case 0:
			z = rng.Uint64() & mask
		case 1:
			z = (rng.Uint64() & 0b1111) << uint(rng.Intn(n)) & mask
		case 2:
			lo := rng.Intn(n)
			z = 1<<uint(lo) | 1<<uint(min(n-1, lo+rng.Intn(tuning.TileBits)))
		default:
			z = 1 | 1<<uint(n-1) | rng.Uint64()&mask
		}
		coeff := complex(rng.Float64()*2-1, rng.Float64()*2-1)
		terms[t] = Term{P: String{X: xs[rng.Intn(len(xs))], Z: z}, Coeff: coeff}
	}
	return terms
}

// FuzzPlanEvaluate evaluates random observables of up to 16 qubits on
// dense or sector states, on one worker or three: Plan.Evaluate must
// agree with refEvaluate within 1e-12 of the coefficients' total weight
// and return refWindowed's bits. Plain `go test` replays the committed
// corpus in testdata/fuzz; `make fuzz-smoke` explores beyond it.
func FuzzPlanEvaluate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, width, count uint8, sector, pooled bool) {
		n := 1 + int(width)%16
		rng := core.NewRNG(seed)
		terms := fuzzTerms(rng, n, 1+int(count)%48)
		pl := NewPlanFromTerms(terms)
		s := randomWideState(rng, n, state.Options{Workers: 3})
		if sector {
			sectorOf(s, n/2)
		}
		opts := ExpectationOptions{Workers: 1}
		if pooled {
			opts.Workers = 3
		}
		bound := 0.0
		for _, tm := range terms {
			bound += cmplx.Abs(tm.Coeff)
		}
		got := pl.Evaluate(s, opts)
		if old := refEvaluate(pl, s, opts); math.Abs(got-old) > 1e-12*bound {
			t.Errorf("n=%d: Evaluate %v, refEvaluate %v (|Δ| %.3g)", n, got, old, math.Abs(got-old))
		}
		if want := refWindowed(pl, s, opts); math.Float64bits(got) != math.Float64bits(want) {
			wins, left := pl.NumWindows(n)
			t.Errorf("n=%d (%d windows, %d leftover, popcount-%d sector %v): Evaluate %v, refWindowed %v",
				n, wins, left, n/2, sector, got, want)
		}
	})
}
