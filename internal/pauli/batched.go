package pauli

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kernel/tuning"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// This file implements the batched multi-term expectation engine. The
// per-term evaluator performs one full O(2ⁿ) amplitude sweep per Pauli
// string, so term count — not qubit count — dominates the wall clock of a
// molecular energy evaluation (~30k sweeps of a 16 GB vector at the
// paper's Fig 1b scale). Two strings with the same X mask induce the same
// basis-state permutation i → j = i XOR x; only their Z masks (a ±1 parity
// per amplitude) and constant phases differ. Grouping terms by X mask
// therefore lets one pass over the amplitudes score every term of the
// group, and the per-term work inside the pass shrinks to a popcount and a
// fused multiply-add:
//
//   - diagonal group (x = 0, the majority of molecular terms): one |aᵢ|²
//     sweep scores all its terms at once;
//   - off-diagonal groups sweep only the half-space where the lowest X bit
//     is clear: the pair (i, j = i⊕x) contributes P₀·s·2Re(conj(aⱼ)aᵢ)
//     when |x∧z| is even and P₀·s·2i·Im(conj(aⱼ)aᵢ) when odd (s the
//     Z-parity sign), so each term reduces a *real* accumulator and every
//     amplitude pair is loaded once instead of twice;
//   - each chunk stages a tile of nonzero weights and their indices in a
//     small buffer, then adds them into each term's sum in a register,
//     four terms at a time; the Z-parity sign flips the weight's sign
//     bit (exactly ×(−1)), not a branch, keeping the inner loop free of
//     data-dependent branch mispredictions.

// xGroup is the set of terms sharing one X mask, compiled for the sweep.
// Terms are split by which real component of the pair product they reduce:
// zsRe/csRe terms accumulate Re(w), zsIm/csIm terms accumulate Im(w)
// (diagonal groups only populate the Re side — |aᵢ|² is real).
type xGroup struct {
	x   uint64
	q   int // half-space qubit: lowest set bit of x (off-diagonal only)
	off int // the group's first accumulator in an evaluation's slot block
	// Folded real weights: csRe[t] = Re(c·i^{|x∧z|}), csIm[t] = −Im(c·i^{|x∧z|}).
	zsRe []uint64
	csRe []float64
	zsIm []uint64
	csIm []float64
	// Raw terms for MatVec and Exp, which need the full complex coefficients.
	zs []uint64
	cs []complex128
}

// Plan is an observable precompiled for batched expectation evaluation.
// Building a plan is O(terms); evaluating it is O(2ⁿ · groups) amplitude
// loads instead of the per-term evaluator's O(2ⁿ · terms). Plans are
// immutable after construction and safe for concurrent Evaluate/MatVec.
type Plan struct {
	maxQubit int
	nTerms   int
	groups   []xGroup // sorted by X mask; the diagonal group (x=0) first
	// generator marks a plan NewGenerator vetted as anti-Hermitian with
	// commuting terms — the precondition of Exp and Bracket.
	generator bool
	// spare is the working set of a finished Evaluate, kept so the next
	// one allocates nothing; concurrent evaluations each take their own.
	spare atomic.Pointer[evaluation]
}

// NewPlan groups op's terms by X mask. The identity term needs no special
// case: it lands in the diagonal group with Z mask 0.
func NewPlan(op *Op) *Plan {
	return NewPlanFromTerms(op.Terms()) // canonical order → deterministic plan
}

// NewPlanFromTerms compiles an explicit term list (in the caller's
// order, which must be deterministic for reproducible summation): a
// generator's strings, or a measurement group's diagonal readout (see
// MeasurementBasis.Plan).
func NewPlanFromTerms(terms []Term) *Plan {
	start := telemetry.Now()
	pl := &Plan{maxQubit: -1, nTerms: len(terms)}
	for _, t := range terms {
		if q := t.P.MaxQubit(); q > pl.maxQubit {
			pl.maxQubit = q
		}
	}
	byX := map[uint64]int{}
	for _, t := range terms {
		x, z := t.P.X, t.P.Z
		gi, ok := byX[x]
		if !ok {
			gi = len(pl.groups)
			byX[x] = gi
			pl.groups = append(pl.groups, xGroup{x: x, q: bits.TrailingZeros64(x | 1<<63)})
		}
		g := &pl.groups[gi]
		cP := t.Coeff * phaseI(bits.OnesCount64(x&z))
		if x == 0 || bits.OnesCount64(x&z)&1 == 0 {
			g.zsRe = append(g.zsRe, z)
			g.csRe = append(g.csRe, real(cP))
		} else {
			g.zsIm = append(g.zsIm, z)
			g.csIm = append(g.csIm, -imag(cP))
		}
		g.zs = append(g.zs, z)
		g.cs = append(g.cs, cP)
	}
	sort.Slice(pl.groups, func(i, j int) bool { return pl.groups[i].x < pl.groups[j].x })
	off := 0
	for gi := range pl.groups {
		pl.groups[gi].off = off
		off += len(pl.groups[gi].zs)
	}
	mPlanBuild.Since(start)
	mPlanGroups.Set(int64(len(pl.groups)))
	mPlanTerms.Set(int64(pl.nTerms))
	return pl
}

// NumGroups reports how many amplitude sweeps one evaluation costs.
func (pl *Plan) NumGroups() int { return len(pl.groups) }

// NumTerms reports how many Pauli strings the plan covers.
func (pl *Plan) NumTerms() int { return pl.nTerms }

// Evaluate computes ⟨ψ|H|ψ⟩ with one amplitude pass per X-mask group,
// chunked over the state's persistent worker pool when opts ask for
// parallelism and the state is large enough. The real part is returned
// (exact for Hermitian H, matching Expectation).
func (pl *Plan) Evaluate(s *state.State, opts ExpectationOptions) float64 {
	if pl.maxQubit >= s.NumQubits() {
		panic(core.QubitError(pl.maxQubit, s.NumQubits()))
	}
	start := telemetry.Now()
	pool, chunks := expectationPool(s, opts, s.Dim())
	ev := pl.spare.Swap(nil)
	if ev == nil {
		ev = &evaluation{pl: pl, stride: padTo(pl.nTerms, 8)}
		ev.body = ev.slot
	}
	ev.start(s.Amplitudes(), max(chunks, 1))
	if pool == nil {
		ev.slot(0, 0, 1)
	} else {
		pool.Run(uint64(chunks), chunks, ev.body)
	}
	total := 0.0
	for gi := range pl.groups {
		g := &pl.groups[gi]
		total += g.fold(ev.acc[g.off:], ev.stride, ev.chunks)
	}
	ev.amps = nil
	pl.spare.Store(ev)
	mPlanEval.Since(start)
	return total
}

// evaluation is one Evaluate call's working set: a block of accumulators
// per chunk slot — every group's terms, padded so slots never share a
// cache line — and the pool body that fills them, bound once.
type evaluation struct {
	pl     *Plan
	amps   []complex128
	acc    []float64
	stride int
	chunks int
	body   func(slot int, lo, hi uint64)
}

// start readies ev for amps split into chunks: zeroed accumulators.
func (ev *evaluation) start(amps []complex128, chunks int) {
	ev.amps, ev.chunks = amps, chunks
	if need := chunks * ev.stride; cap(ev.acc) < need {
		ev.acc = make([]float64, need)
	} else {
		ev.acc = ev.acc[:need]
		clear(ev.acc)
	}
}

// slot sweeps every group over chunk slot's share of its index range —
// the range Pool.Run would hand that slot for the group alone — into the
// slot's accumulator block. (lo and hi address slots, one per call.)
//
//vqesim:hotpath
func (ev *evaluation) slot(slot int, _, _ uint64) {
	blk := ev.acc[slot*ev.stride : (slot+1)*ev.stride]
	for gi := range ev.pl.groups {
		g := &ev.pl.groups[gi]
		total := uint64(len(ev.amps))
		if g.x != 0 {
			total /= 2 // off-diagonal sweeps only the lower half-space of qubit q
		}
		chunk := (total + uint64(ev.chunks) - 1) / uint64(ev.chunks)
		lo := uint64(slot) * chunk
		if lo >= total {
			continue
		}
		nRe := len(g.zsRe)
		acc := blk[g.off : g.off+len(g.zs)]
		g.sweep(ev.amps, lo, min(lo+chunk, total), acc[:nRe], acc[nRe:])
	}
}

// EvaluateCounts estimates a diagonal plan (a measurement group's readout,
// MeasurementBasis.Plan) from a shot histogram: each term's Z-parity sign
// weighted by count/total, outcomes visited in ascending order, folded as
// Evaluate folds. A plan with an off-diagonal group has no reading on
// counts.
func (pl *Plan) EvaluateCounts(counts map[uint64]int) float64 {
	if len(pl.groups) == 0 {
		return 0
	}
	g := &pl.groups[0]
	if len(pl.groups) > 1 || g.x != 0 {
		panic(fmt.Errorf("%w: pauli: only a diagonal plan reads a shot histogram", core.ErrInvalidArgument))
	}
	outcomes := make([]uint64, 0, len(counts))
	shots := 0
	for o, c := range counts {
		outcomes = append(outcomes, o)
		shots += c
	}
	slices.Sort(outcomes)
	acc := make([]float64, len(g.zsRe))
	for _, o := range outcomes {
		p := float64(counts[o]) / float64(shots)
		for t, z := range g.zsRe {
			acc[t] += (1 - 2*float64(bits.OnesCount64(o&z)&1)) * p
		}
	}
	return g.fold(acc, len(acc), 1)
}

// expectationPool resolves the worker pool and chunk count for an
// expectation-style reduction: nil/0 when the evaluation should run
// serial. Workers semantics follow state.Options: 0 = GOMAXPROCS,
// 1 = serial.
func expectationPool(s *state.State, opts ExpectationOptions, dim int) (*state.Pool, int) {
	w := opts.resolveWorkers()
	if w <= 1 || dim < tuning.ReduceParallel {
		return nil, 0
	}
	return s.EnsurePool(w), w
}

// sweepTile is how many indices a group sweep stages before adding
// their weights into the terms' sums.
const sweepTile = 128

// sweep accumulates the group's parity-signed pair products over
// [lo, hi). For the diagonal group the index range is the amplitudes
// themselves; for off-diagonal groups it enumerates the half-space with
// qubit q clear and scores both members of each (i, i⊕x) pair at once.
// Each term's sum still takes the weights in ascending index order.
//
//vqesim:hotpath
func (g *xGroup) sweep(amps []complex128, lo, hi uint64, accRe, accIm []float64) {
	var idx [sweepTile]uint64
	var wRe, wIm [sweepTile]float64
	x, q := g.x, g.q
	bit, im := uint64(1)<<uint(q), len(g.zsIm) > 0
	for at := lo; at < hi; at += sweepTile {
		end := min(hi, at+sweepTile)
		n := 0
		if x == 0 {
			for i := at; i < end; i++ {
				a := amps[i]
				w := real(a)*real(a) + imag(a)*imag(a)
				if w == 0 {
					continue
				}
				idx[n], wRe[n] = i, w
				n++
			}
			accumulate(accRe, g.zsRe, idx[:n], wRe[:n])
			continue
		}
		i := core.InsertZeroBit(at, q)
		for rest := at; rest < end; rest, i = rest+1, next(i, bit) {
			ai := amps[i]
			aj := amps[i^x]
			if ai == 0 && aj == 0 {
				continue
			}
			// w = conj(aⱼ)·aᵢ; each pair contributes twice the chosen part.
			idx[n] = i
			wRe[n] = 2 * (real(aj)*real(ai) + imag(aj)*imag(ai))
			if im {
				wIm[n] = 2 * (real(aj)*imag(ai) - imag(aj)*real(ai))
			}
			n++
		}
		accumulate(accRe, g.zsRe, idx[:n], wRe[:n])
		accumulate(accIm, g.zsIm, idx[:n], wIm[:n])
	}
}

// accumulate adds each weight ws[k], signed by the parity of idx[k]∧z,
// into the sum of every term z of zs, in k order: four terms at a time
// in registers, then two, then one.
//
//vqesim:hotpath
func accumulate(acc []float64, zs, idx []uint64, ws []float64) {
	ws = ws[:len(idx)]
	t := 0
	for ; t+4 <= len(zs); t += 4 {
		z0, z1, z2, z3 := zs[t], zs[t+1], zs[t+2], zs[t+3]
		a0, a1, a2, a3 := acc[t], acc[t+1], acc[t+2], acc[t+3]
		for k, i := range idx {
			w := math.Float64bits(ws[k])
			a0 += math.Float64frombits(w ^ paritySign(i&z0))
			a1 += math.Float64frombits(w ^ paritySign(i&z1))
			a2 += math.Float64frombits(w ^ paritySign(i&z2))
			a3 += math.Float64frombits(w ^ paritySign(i&z3))
		}
		acc[t], acc[t+1], acc[t+2], acc[t+3] = a0, a1, a2, a3
	}
	if t+2 <= len(zs) {
		z0, z1 := zs[t], zs[t+1]
		a0, a1 := acc[t], acc[t+1]
		for k, i := range idx {
			w := math.Float64bits(ws[k])
			a0 += math.Float64frombits(w ^ paritySign(i&z0))
			a1 += math.Float64frombits(w ^ paritySign(i&z1))
		}
		acc[t], acc[t+1] = a0, a1
		t += 2
	}
	if t < len(zs) {
		z0 := zs[t]
		a0 := acc[t]
		for k, i := range idx {
			a0 += math.Float64frombits(math.Float64bits(ws[k]) ^ paritySign(i&z0))
		}
		acc[t] = a0
	}
}

// next steps i, an index with the given bit clear, to the next such
// index: InsertZeroBit of the next rest index.
func next(i, bit uint64) uint64 {
	i++
	return i + i&bit
}

// paritySign is the sign bit of (−1)^popcount(m): flipping it in a
// weight is exactly multiplying the weight by the parity sign.
func paritySign(m uint64) uint64 { return uint64(bits.OnesCount64(m)&1) << 63 }

// fold reduces the per-chunk accumulator blocks into the group's energy
// contribution Σₜ weightₜ · parity-sumₜ.
func (g *xGroup) fold(acc []float64, stride, chunks int) float64 {
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

// padTo rounds n up to a multiple of unit and adds one full unit, so
// consecutive per-chunk blocks of a shared slice never touch the same
// cache line even when the slice base is line-misaligned.
func padTo(n, unit int) int {
	return (n+unit-1)/unit*unit + unit
}

// MatVec computes dst = H·src (batched counterpart of Op.MatVec, used by
// the adjoint-gradient and Adapt pool-scan paths). The work is partitioned
// on the destination index and dispatched to the pool once per call; each
// chunk walks the X-mask groups in order over its own slice of dst, so
// every dst entry receives its per-group contributions in group order
// whatever the chunking, and chunks never share an entry. pool may be nil
// for serial execution. dst and src must both have length 2ⁿ and must not
// alias.
func (pl *Plan) MatVec(dst, src []complex128, pool *state.Pool) {
	start := telemetry.Now()
	defer mPlanMatVec.Since(start)
	dim := uint64(len(src))
	if pool == nil || len(src) < tuning.ReduceParallel {
		pl.matVecRange(dst, src, 0, dim)
		return
	}
	pool.Run(dim, pool.Workers(), func(_ int, lo, hi uint64) { pl.matVecRange(dst, src, lo, hi) })
}

// matVecRange fills dst[lo:hi): for group x, entry j gathers from source
// i = j⊕x. Zero sources are skipped, which is most of them for a state
// confined to a particle-number sector.
//
//vqesim:hotpath
func (pl *Plan) matVecRange(dst, src []complex128, lo, hi uint64) {
	for j := lo; j < hi; j++ {
		dst[j] = 0
	}
	for gi := range pl.groups {
		g := &pl.groups[gi]
		zs, cs, x := g.zs, g.cs, g.x
		for j := lo; j < hi; j++ {
			i := j ^ x
			v := src[i]
			if v == 0 {
				continue
			}
			// Signs by multiplication (±1 is exact), not branches: the
			// parity of i∧z is as good as random to the predictor.
			var cr, ci float64
			for t, z := range zs {
				sg := 1 - 2*float64(bits.OnesCount64(i&z)&1)
				cr += sg * real(cs[t])
				ci += sg * imag(cs[t])
			}
			dst[j] += complex(cr, ci) * v
		}
	}
}
