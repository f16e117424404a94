package pauli

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/state"
)

// refEvaluate is the batched evaluation as first written: per group, a
// fresh accumulator block per chunk, one pass that adds each nonzero
// amplitude's (or pair's) parity-signed weight into every term's slot,
// sign by ±1.0 multiplication, then the fold. Plan.Evaluate returns its
// bits below windowQubits (refWindowed reduces to it there) and agrees
// with it to rounding above.
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

// refWindowed defines the order Plan.Evaluate sums in, term by term.
// Per group and chunk (the ranges Pool.Run hands out), a leftover term
// adds its parity-signed weights in ascending index order. A windowed
// term at start s bins the weights by (i >> s) mod 2^w: each value of
// i >> s sums its weights in ascending order from 0, and that sum is
// added to its bin. The term's chunk value is then its parity-signed
// bins added in ascending bin order from 0. The chunk values fold as in
// refEvaluate. The window width w is TileBits from windowQubits up and
// the whole register below.
func refWindowed(pl *Plan, s *state.State, opts ExpectationOptions) float64 {
	amps := s.Amplitudes()
	n := s.NumQubits()
	chunks := 1
	if w := opts.resolveWorkers(); w > 1 && len(amps) >= tuning.ReduceParallel {
		chunks = w
	}
	total := 0.0
	for gi := range pl.groups {
		g := &pl.groups[gi]
		nRe, nt := len(g.zsRe), len(g.zsRe)+len(g.zsIm)
		size := uint64(len(amps))
		if g.x != 0 {
			size /= 2
		}
		chunk := (size + uint64(chunks) - 1) / uint64(chunks)
		acc := make([]float64, chunks*nt)
		for side, zs := range [][]uint64{g.zsRe, g.zsIm} {
			starts := refWindowStarts(zs, n)
			for t, z := range zs {
				for c := 0; c < chunks; c++ {
					lo := uint64(c) * chunk
					hi := min(lo+chunk, size)
					acc[c*nt+side*nRe+t] = refTermSum(g, amps, n, lo, hi, z, side == 1, starts[t])
				}
			}
		}
		total += refFold(g, acc, nt, chunks)
	}
	return total
}

// refWindowWidth is the window width on n qubits.
func refWindowWidth(n int) int {
	if n < tuning.TileBits+2 {
		return n
	}
	return tuning.TileBits
}

// refWindowStarts packs a group side's Z masks into windows of
// refWindowWidth(n) qubits: in order of lowest Z bit (Z mask 0 last), a
// mask joins the last window if it lies inside it and otherwise opens
// one at min(lowest bit, n − w). A mask spanning more than w qubits is
// left over (−1).
func refWindowStarts(zs []uint64, n int) []int {
	w := refWindowWidth(n)
	order := make([]int, len(zs))
	for t := range order {
		order[t] = t
	}
	sort.SliceStable(order, func(a, b int) bool {
		return bits.TrailingZeros64(zs[order[a]]) < bits.TrailingZeros64(zs[order[b]])
	})
	starts := make([]int, len(zs))
	open := -1
	for _, t := range order {
		z := zs[t]
		lo, hi := bits.TrailingZeros64(z), 63-bits.LeadingZeros64(z)
		if z != 0 && hi-lo+1 > w {
			starts[t] = -1
			continue
		}
		if open < 0 || hi >= open+w {
			open = min(lo, n-w)
		}
		starts[t] = open
	}
	return starts
}

// refTermSum is one term's value over sweep positions [lo, hi): start
// −1 sums its signed weights directly, start ≥ 0 through the bins.
func refTermSum(g *xGroup, amps []complex128, n int, lo, hi uint64, z uint64, im bool, start int) float64 {
	sign := func(i uint64) float64 { return 1 - 2*float64(bits.OnesCount64(i&z)&1) }
	weight := func(rest uint64) (uint64, float64) {
		if g.x == 0 {
			a := amps[rest]
			return rest, real(a)*real(a) + imag(a)*imag(a)
		}
		i := core.InsertZeroBit(rest, g.q)
		ai, aj := amps[i], amps[i^g.x]
		if im {
			return i, 2 * (real(aj)*imag(ai) - imag(aj)*real(ai))
		}
		return i, 2 * (real(aj)*real(ai) + imag(aj)*imag(ai))
	}
	e := 0.0
	if start < 0 {
		for rest := lo; rest < hi; rest++ {
			i, w := weight(rest)
			e += sign(i) * w
		}
		return e
	}
	bins := make([]float64, 1<<refWindowWidth(n))
	mask := uint64(len(bins) - 1)
	key, sum, open := uint64(0), 0.0, false
	for rest := lo; rest < hi; rest++ {
		i, w := weight(rest)
		if !open || i>>uint(start) != key {
			if open {
				bins[key&mask] += sum
			}
			key, sum, open = i>>uint(start), 0, true
		}
		sum += w
	}
	if open {
		bins[key&mask] += sum
	}
	for b, v := range bins {
		e += sign(uint64(b)<<uint(start)) * v
	}
	return e
}

// groupTerms returns nRe strings with X mask x that score the real part
// of the pair product (|x∧z| even) and nIm that score the imaginary part
// (|x∧z| odd), with distinct Z masks inside span contiguous qubits (at a
// random offset per string; span n for masks over the whole register)
// and random complex coefficients. For x = 0 every term is diagonal and
// nIm must be 0.
func groupTerms(rng *core.RNG, n, span int, x uint64, nRe, nIm int) []Term {
	mask := uint64(1)<<uint(span) - 1
	seen := map[uint64]bool{}
	var out []Term
	for nRe > 0 || nIm > 0 {
		z := (rng.Uint64() & mask) << uint(rng.Intn(n-span+1))
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

// sectorOf zeroes every amplitude of s outside Hamming weight k.
func sectorOf(s *state.State, k int) *state.State {
	amps := s.Amplitudes()
	for i := range amps {
		if bits.OnesCount64(uint64(i)) != k {
			amps[i] = 0
		}
	}
	return s
}

// TestPlanEvaluateBitEqualReference holds Plan.Evaluate to the bits of
// refWindowed: groups of 1, 2, 3, 4, 5 and 9 terms on the Re and the Im
// side (so every remainder of a blocked term loop runs), with Z masks
// over the whole register (mostly left over at n = 13) and within four
// qubits (windowed), on dense states and on states confined to a
// particle-number sector, serial and pooled. At n = 8 and 12 the window
// is the register, and refWindowed must return refEvaluate's bits. An
// identity-only plan on a 0-qubit state returns its coefficient.
func TestPlanEvaluateBitEqualReference(t *testing.T) {
	id := NewPlanFromTerms([]Term{{P: Identity, Coeff: 0.75}})
	for _, w := range []int{1, 3} {
		opts := ExpectationOptions{Workers: w}
		if got, want := id.Evaluate(state.New(0, state.Options{}), opts), 0.75; got != want {
			t.Errorf("identity on 0 qubits, workers=%d: Evaluate %v, want %v", w, got, want)
		}
	}
	sizes := []int{1, 2, 3, 4, 5, 9}
	rng := core.NewRNG(0xE7A1)
	for _, n := range []int{8, 12, 13} {
		for si, k := range sizes {
			other := sizes[(si+1)%len(sizes)]
			xs := []uint64{0b1010, 0b110 << uint(n-4), 1<<uint(n-1) | 1}
			var terms []Term
			for _, span := range []int{n, 4} {
				terms = append(terms, groupTerms(rng, n, span, 0, k, 0)...)
				terms = append(terms, groupTerms(rng, n, span, xs[0], k, 0)...)
				terms = append(terms, groupTerms(rng, n, span, xs[1], 0, k)...)
				terms = append(terms, groupTerms(rng, n, span, xs[2], k, other)...)
			}
			pl := NewPlanFromTerms(terms)

			dense := randomWideState(rng, n, state.Options{Workers: 3})
			sector := sectorOf(randomWideState(rng, n, state.Options{Workers: 3}), n/2)
			for name, s := range map[string]*state.State{"dense": dense, "sector": sector} {
				for _, w := range []int{1, 3} {
					opts := ExpectationOptions{Workers: w}
					got, want := pl.Evaluate(s, opts), refWindowed(pl, s, opts)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("n=%d k=%d %s workers=%d: Evaluate %v, reference %v", n, k, name, w, got, want)
					}
					if old := refEvaluate(pl, s, opts); n < windowQubits && math.Float64bits(want) != math.Float64bits(old) {
						t.Errorf("n=%d k=%d %s workers=%d: refWindowed %v, refEvaluate %v", n, k, name, w, want, old)
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
	terms := randomOp(rng, n, 60).Terms()
	terms = append(terms, groupTerms(rng, n, 3, 0, 5, 0)...)
	terms = append(terms, groupTerms(rng, n, 3, 0b101<<4, 2, 0)...)
	pl := NewPlanFromTerms(terms)
	states := []*state.State{
		randomWideState(rng, n, state.Options{Workers: 2}),
		randomWideState(rng, n, state.Options{Workers: 2}),
	}
	opts := ExpectationOptions{Workers: 2}
	want := []float64{refWindowed(pl, states[0], opts), refWindowed(pl, states[1], opts)}
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

// windowedTerms is an observable that takes every route on n ≥ 12
// qubits: diagonal strings inside a few qubits and straddling the
// windows' edges; hopping groups (X on q and q+2) at every q, whose one
// window starts at q, above q or at n − TileBits, some with an Im-side
// string too; Z masks wider than TileBits (left over); the identity; and
// random strings of both kinds.
func windowedTerms(rng *core.RNG, n int) []Term {
	c := func() complex128 { return complex(rng.Float64()*2-1, rng.Float64()*2-1) }
	terms := []Term{{P: String{}, Coeff: c()}}
	top := uint64(1) << uint(n-1)
	for q := 0; q < n; q++ {
		b := uint64(1) << uint(q)
		terms = append(terms, Term{P: String{Z: b}, Coeff: c()})
		if q+5 < n {
			terms = append(terms, Term{P: String{Z: b | b<<5}, Coeff: c()})
		}
		if q+2 < n {
			x := b | b<<2
			terms = append(terms, Term{P: String{X: x, Z: b << 1}, Coeff: c()})
			if q%3 != 2 {
				terms = append(terms, Term{P: String{X: x, Z: x | b<<1}, Coeff: c()})
			}
			if q%3 == 1 {
				terms = append(terms, Term{P: String{X: x, Z: b}, Coeff: c()}) // Im side
			}
		}
	}
	terms = append(terms,
		Term{P: String{Z: 1 | top}, Coeff: c()},
		Term{P: String{X: 0b11, Z: 1 | top}, Coeff: c()},
		Term{P: String{X: 0b11, Z: 0b10 | top}, Coeff: c()})
	terms = append(terms, groupTerms(rng, n, n, 0b110, 3, 2)...)
	terms = append(terms, groupTerms(rng, n, 6, 0b110, 3, 2)...)
	return terms
}

// TestPlanEvaluateAgreesWithReference holds Plan.Evaluate to the old
// order within 1e-12 of the coefficients' total weight, and to
// refWindowed's bits up to 16 qubits, from 12 qubits (no windows yet)
// to 20: dense and sector states, serial and pooled.
func TestPlanEvaluateAgreesWithReference(t *testing.T) {
	rng := core.NewRNG(0xA9EE)
	for _, n := range []int{12, 13, 16, 20} {
		terms := windowedTerms(rng, n)
		pl := NewPlanFromTerms(terms)
		if wins, left := pl.NumWindows(n); (wins == 0) != (n < windowQubits) || left == 0 {
			t.Fatalf("n=%d: %d windows, %d leftover terms; want both routes from %d qubits", n, wins, left, windowQubits)
		}
		bound := 0.0
		for _, tm := range terms {
			bound += cmplx.Abs(tm.Coeff)
		}
		bound *= 1e-12
		dense := randomWideState(rng, n, state.Options{Workers: 3})
		sector := sectorOf(randomWideState(rng, n, state.Options{Workers: 3}), n/2)
		for name, s := range map[string]*state.State{"dense": dense, "sector": sector} {
			for _, w := range []int{1, 3} {
				opts := ExpectationOptions{Workers: w}
				got, old := pl.Evaluate(s, opts), refEvaluate(pl, s, opts)
				if d := math.Abs(got - old); d > bound {
					t.Errorf("n=%d %s workers=%d: Evaluate %v, refEvaluate %v (|Δ| %.3g > %.3g)", n, name, w, got, old, d, bound)
				}
				if n > 16 {
					continue
				}
				if want := refWindowed(pl, s, opts); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("n=%d %s workers=%d: Evaluate %v, refWindowed %v", n, name, w, got, want)
				}
			}
		}
	}
}
