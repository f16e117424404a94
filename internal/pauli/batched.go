package pauli

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
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
// group:
//
//   - the pass computes one weight per index of the group's range: |aᵢ|²
//     for the diagonal group (x = 0, the majority of molecular terms),
//     and for an off-diagonal group, over the half-space where the lowest
//     X bit is clear, 2Re(conj(aⱼ)aᵢ) for terms with |x∧z| even and
//     2Im(conj(aⱼ)aᵢ) for odd ones; each term's expectation is then
//     P₀ times a real sum of its weights signed by the parity of i∧z;
//   - a term reads the weights only through the bits of its Z mask. A
//     side (Re or Im) of a group packs its terms into windows of
//     w = TileBits contiguous qubits, greedily by lowest Z bit, each
//     window starting at min(that bit, n − w). The pass adds each weight
//     once per window, into bin (i >> start) mod 2^w: each bin takes its
//     weights in ascending index order, a block of indices with equal
//     i >> start summed in a register first. After the pass each term
//     folds its window's reachable bins, signed by its parity, into its
//     chunk slot. That is one add per weight per window, not per term;
//   - a term whose Z mask spans more than w qubits is left over: summed
//     per weight in the same pass, four terms at a time in registers; the
//     sign flips the weight's sign bit (exactly ×(−1)), not a branch;
//   - below n = TileBits + 2 a bin would collect at most two weights per
//     chunk, too few to pay for the fold, so there the window is the
//     whole register: one index per bin, whose fold is that same
//     per-weight sum, and every term is summed per weight;
//   - a group with one Re window and no leftover terms (each hopping
//     group of a lattice model) bins its weights in the loop that
//     computes them; any other stages a tile of nonzero weights first.
//     Zero weights change no sum, so both give the same bits;
//   - chunks of the range go to the state's pool, each with its own slots
//     and bins, and each term's chunk slots are added in chunk order.

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
	// perWeight is the route below windowQubits: every term summed per
	// weight, slots in term order.
	perWeight route
}

// route is how a group's terms read a state of one width: the leftover
// terms, summed per weight into slots [0, len(leftRe)+len(leftIm)), and
// the windows, whose terms take the slots after them. slot maps the
// group's terms — csRe's, then csIm's — to their slots.
type route struct {
	leftRe, leftIm []uint64
	windows        []window
	slot           []int
}

// window is TileBits contiguous qubits from start: one side of a group's
// weights is binned by those bits of the index, and the Z masks of its
// terms lie inside them.
type window struct {
	start int
	span  int      // log2 of a block of equal i >> start in the group's sweep
	im    bool     // bins the Im weights
	skip  uint64   // the bin bit the group's pairs never set (qubit q), or 0
	zs    []uint64 // its terms' Z masks
	off   int      // its first term's slot
}

// run is a window's open block of the sweep: the index block i >> start
// being summed, and its sum so far.
type run struct {
	key uint64
	sum float64
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
	// sectors memoizes RestrictSector, one entry per (n, ne) asked for.
	sectorMu sync.Mutex
	sectors  []*sectorRestriction
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
		g := &pl.groups[gi]
		g.off = off
		off += len(g.zs)
		g.perWeight = route{leftRe: g.zsRe, leftIm: g.zsIm, slot: make([]int, len(g.zs))}
		for t := range g.perWeight.slot {
			g.perWeight.slot[t] = t
		}
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

// MaxQubit returns the highest qubit a term acts on, or -1.
func (pl *Plan) MaxQubit() int { return pl.maxQubit }

// windowQubits is the narrowest state whose terms read windows. A bin
// of a TileBits-qubit window collects 2^(n−TileBits) weights of a serial
// sweep, half that per chunk on two workers, and a term's fold reads
// every bin: below two more qubits than a window, the fold costs as many
// adds as summing the term per weight.
const windowQubits = tuning.TileBits + 2

// NumWindows reports how an evaluation on an n-qubit state reads the
// plan: the windows its group sweeps bin weights into, and the leftover
// terms summed per weight (all of them below windowQubits).
func (pl *Plan) NumWindows(n int) (windows, leftover int) {
	for _, r := range pl.routes(n) {
		windows += len(r.windows)
		leftover += len(r.leftRe) + len(r.leftIm)
	}
	return windows, leftover
}

// routes assigns every group's terms to windows for an n-qubit state.
func (pl *Plan) routes(n int) []route {
	rs := make([]route, len(pl.groups))
	for gi := range pl.groups {
		rs[gi] = pl.groups[gi].route(n)
	}
	return rs
}

// route packs each side's terms into windows, in order of lowest Z bit
// (a term with Z mask 0 fits any window and comes last): a term joins
// the side's last window if its Z mask lies inside it, and otherwise
// opens one at min(lowest bit, n − TileBits). A term whose Z mask spans
// more than TileBits qubits is left over. Below windowQubits every term
// is summed per weight.
func (g *xGroup) route(n int) route {
	const w = tuning.TileBits
	if n < windowQubits {
		return g.perWeight
	}
	nRe := len(g.zsRe)
	r := route{slot: make([]int, len(g.zs))}
	var left []int      // term numbers (Im terms after nRe) left over
	var members [][]int // per window, its terms' numbers
	for side, zs := range [][]uint64{g.zsRe, g.zsIm} {
		order := make([]int, len(zs))
		for t := range order {
			order[t] = t
		}
		sort.SliceStable(order, func(a, b int) bool {
			return bits.TrailingZeros64(zs[order[a]]) < bits.TrailingZeros64(zs[order[b]])
		})
		open := -1
		for _, t := range order {
			z := zs[t]
			lo, hi := bits.TrailingZeros64(z), 63-bits.LeadingZeros64(z)
			if z != 0 && hi-lo >= w {
				left = append(left, side*nRe+t)
				continue
			}
			if open < 0 || hi >= r.windows[open].start+w {
				win := window{start: min(lo, n-w), im: side == 1}
				win.span = win.start
				if g.x != 0 && g.q < win.start {
					win.span-- // the sweep skips bit q below the block
				}
				if g.x != 0 && g.q >= win.start && g.q < win.start+w {
					win.skip = 1 << uint(g.q-win.start)
				}
				r.windows = append(r.windows, win)
				members = append(members, nil)
				open = len(r.windows) - 1
			}
			r.windows[open].zs = append(r.windows[open].zs, z)
			members[open] = append(members[open], side*nRe+t)
		}
	}
	slices.Sort(left)
	next := 0
	for _, t := range left {
		if t < nRe {
			r.leftRe = append(r.leftRe, g.zsRe[t])
		} else {
			r.leftIm = append(r.leftIm, g.zsIm[t-nRe])
		}
		r.slot[t] = next
		next++
	}
	for k := range r.windows {
		r.windows[k].off = next
		for _, t := range members[k] {
			r.slot[t] = next
			next++
		}
	}
	return r
}

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
		ev = &evaluation{pl: pl, stride: padTo(pl.nTerms, 8), n: -1}
		ev.body = ev.slot
	}
	ev.start(s.Amplitudes(), s.NumQubits(), max(chunks, 1))
	if pool == nil {
		ev.slot(0, 0, 1)
	} else {
		pool.Run(uint64(chunks), chunks, ev.body)
	}
	total := 0.0
	for gi := range pl.groups {
		g := &pl.groups[gi]
		total += g.fold(ev.acc[g.off:], ev.routes[gi].slot, ev.stride, ev.chunks)
	}
	ev.amps = nil
	pl.spare.Store(ev)
	mPlanEval.Since(start)
	return total
}

// evaluation is one Evaluate call's working set: a block of accumulators
// per chunk slot — every group's terms, padded so slots never share a
// cache line — the routes for the state's width, the bins and runs each
// chunk slot sweeps a group's windows into, and the pool body that fills
// them, bound once.
type evaluation struct {
	pl      *Plan
	amps    []complex128
	acc     []float64
	stride  int
	chunks  int
	n       int // the width routes and scratch are for (−1: none yet)
	routes  []route
	scratch []binScratch
	body    func(slot int, lo, hi uint64)
}

// binScratch is one chunk slot's bins (TileBits wide per window) and
// open runs, enough for the group with the most windows.
type binScratch struct {
	bins []float64
	runs []run
}

// start readies ev for amps of an n-qubit state split into chunks:
// zeroed accumulators, routes and scratch for n.
func (ev *evaluation) start(amps []complex128, n, chunks int) {
	ev.amps, ev.chunks = amps, chunks
	if need := chunks * ev.stride; cap(ev.acc) < need {
		ev.acc = make([]float64, need)
	} else {
		ev.acc = ev.acc[:need]
		clear(ev.acc)
	}
	if n != ev.n {
		ev.n, ev.routes, ev.scratch = n, ev.pl.routes(n), nil
	}
	for len(ev.scratch) < chunks {
		wins := 0
		for _, r := range ev.routes {
			wins = max(wins, len(r.windows))
		}
		ev.scratch = append(ev.scratch, binScratch{
			bins: make([]float64, wins<<tuning.TileBits),
			runs: make([]run, wins),
		})
	}
}

// slot sweeps every group over chunk slot's share of its index range —
// the range Pool.Run would hand that slot for the group alone — into the
// slot's accumulator block. (lo and hi address slots, one per call.)
//
//vqesim:hotpath
func (ev *evaluation) slot(slot int, _, _ uint64) {
	blk := ev.acc[slot*ev.stride : (slot+1)*ev.stride]
	sc := &ev.scratch[slot]
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
		g.sweep(&ev.routes[gi], sc, ev.amps, lo, min(lo+chunk, total), blk[g.off:g.off+len(g.zs)])
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
	return g.fold(acc, g.perWeight.slot, len(acc), 1)
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
// their weights into the terms' sums and the windows' bins.
const sweepTile = 128

// sweep scores the group's terms over [lo, hi) along route r into acc,
// their slots. For the diagonal group the index range is the amplitudes
// themselves; for off-diagonal groups it enumerates the half-space with
// qubit q clear and scores both members of each (i, i⊕x) pair at once.
// Each leftover term's sum and each bin take the weights in ascending
// index order; sc's bins are zero again on return.
//
//vqesim:hotpath
func (g *xGroup) sweep(r *route, sc *binScratch, amps []complex128, lo, hi uint64, acc []float64) {
	if len(r.leftRe)+len(r.leftIm) == 0 && len(r.windows) == 1 && !r.windows[0].im {
		g.sweepWindow(&r.windows[0], windowBins(sc.bins, 0), amps, lo, hi)
	} else {
		g.sweepStaged(r, sc, amps, lo, hi, acc)
	}
	for k := range r.windows {
		win := &r.windows[k]
		win.fold(acc[win.off:win.off+len(win.zs)], windowBins(sc.bins, k))
	}
}

// sweepWindow bins the Re weights of a group with one window and no
// leftover terms as it computes them, the same sums in the same order as
// the staged sweep: each block of 2^span sweep positions — one value of
// i >> start — is summed in a register, then added to its bin.
//
//vqesim:hotpath
func (g *xGroup) sweepWindow(win *window, bins []float64, amps []complex128, lo, hi uint64) {
	const mask = 1<<tuning.TileBits - 1
	x, q := g.x, g.q
	bit, scale := uint64(1)<<uint(q), 2.0
	if x == 0 {
		scale = 1 // |aᵢ|², not a pair
	}
	i := core.InsertZeroBit(lo, q)
	block, start := uint64(1)<<uint(win.span), uint(win.start)
	key, sum := uint64(0), 0.0
	for at := lo; at < hi; {
		end := min(hi, at+block-at&(block-1))
		if b := i >> start; b != key {
			bins[key&mask] += sum
			key, sum = b, 0
		}
		for ; at < end; at, i = at+1, next(i, bit) {
			ai := amps[i]
			aj := amps[i^x]
			// w = conj(aⱼ)·aᵢ; each pair contributes twice its real part.
			sum += scale * (real(aj)*real(ai) + imag(aj)*imag(ai))
		}
	}
	bins[key&mask] += sum
}

// sweepStaged stages each tile's nonzero weights and their indices, then
// adds them into every leftover term's sum and every window's bins.
//
//vqesim:hotpath
func (g *xGroup) sweepStaged(r *route, sc *binScratch, amps []complex128, lo, hi uint64, acc []float64) {
	var idx [sweepTile]uint64
	var wRe, wIm [sweepTile]float64
	x, q := g.x, g.q
	bit, im := uint64(1)<<uint(q), len(g.zsIm) > 0
	nRe, nLeft := len(r.leftRe), len(r.leftRe)+len(r.leftIm)
	runs := sc.runs[:len(r.windows)]
	clear(runs)
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
		} else {
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
		}
		accumulate(acc[:nRe], r.leftRe, idx[:n], wRe[:n])
		accumulate(acc[nRe:nLeft], r.leftIm, idx[:n], wIm[:n])
		for k := range runs {
			ws := wRe[:n]
			if r.windows[k].im {
				ws = wIm[:n]
			}
			runs[k].add(windowBins(sc.bins, k), r.windows[k].start, idx[:n], ws)
		}
	}
	for k := range runs {
		windowBins(sc.bins, k)[runs[k].key&(1<<tuning.TileBits-1)] += runs[k].sum
	}
}

// windowBins is window k's bins in a slot's scratch.
func windowBins(bins []float64, k int) []float64 {
	return bins[k<<tuning.TileBits : (k+1)<<tuning.TileBits]
}

// add bins the weights ws of indices idx (ascending) for a window at
// start: the weights of one value of i >> start are summed in the run's
// register, which goes to its bin when the next value begins.
//
//vqesim:hotpath
func (rn *run) add(bins []float64, start int, idx []uint64, ws []float64) {
	mask := uint64(len(bins) - 1)
	ws = ws[:len(idx)]
	s := uint(start)
	key, sum := rn.key, rn.sum
	for k, i := range idx {
		if i>>s != key {
			bins[key&mask] += sum
			key, sum = i>>s, 0
		}
		sum += ws[k]
	}
	rn.key, rn.sum = key, sum
}

// fold adds the window's bins, in ascending order and signed by each
// term's parity, into the terms' slots acc, and zeroes the bins. Bins
// the group's pairs cannot reach are not read.
//
//vqesim:hotpath
func (win *window) fold(acc []float64, bins []float64) {
	var idx [sweepTile]uint64
	var ws [sweepTile]float64
	n := 0
	for b := uint64(0); b < uint64(len(bins)); b = next(b, win.skip) {
		v := bins[b]
		if v == 0 {
			continue
		}
		bins[b] = 0
		idx[n], ws[n] = b<<uint(win.start), v
		n++
		if n == sweepTile {
			accumulate(acc, win.zs, idx[:], ws[:])
			n = 0
		}
	}
	accumulate(acc, win.zs, idx[:n], ws[:n])
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
// index: InsertZeroBit of the next rest index. (bit 0 steps by one.)
func next(i, bit uint64) uint64 {
	i++
	return i + i&bit
}

// paritySign is the sign bit of (−1)^popcount(m): flipping it in a
// weight is exactly multiplying the weight by the parity sign.
func paritySign(m uint64) uint64 { return uint64(bits.OnesCount64(m)&1) << 63 }

// fold reduces the per-chunk accumulator blocks into the group's energy
// contribution Σₜ weightₜ · parity-sumₜ, reading term t from its slot.
func (g *xGroup) fold(acc []float64, slot []int, stride, chunks int) float64 {
	nRe := len(g.csRe)
	total := 0.0
	for t, c := range g.csRe {
		e := 0.0
		for s := 0; s < chunks; s++ {
			e += acc[s*stride+slot[t]]
		}
		total += c * e
	}
	for t, c := range g.csIm {
		e := 0.0
		for s := 0; s < chunks; s++ {
			e += acc[s*stride+slot[nRe+t]]
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
