// Package state implements the state-vector simulation engine at the heart
// of the NWQ-Sim reproduction. It provides serial and parallel gate
// application over a 2ⁿ-amplitude complex vector, measurement and sampling,
// and the two-tier (device/host) memory model used by the post-ansatz state
// cache (paper §4.1.4).
//
// The paper's GPU kernels distribute amplitude updates over thousands of
// CUDA cores; here the same chunked update loops are distributed over a
// goroutine worker pool, which exercises identical index arithmetic and
// preserves the optimization trade-offs the paper evaluates (gate counts,
// fusion width, caching).
package state

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/kernel/tuning"
	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// BytesPerAmp is the memory cost of one complex128 amplitude.
const BytesPerAmp = 16

// MemoryBytes returns the state-vector storage for n qubits — the quantity
// plotted in the paper's Figure 1c.
func MemoryBytes(n int) uint64 {
	if n < 0 || n > 62 {
		panic(core.ErrInvalidArgument)
	}
	return BytesPerAmp << uint(n)
}

// Options configures a simulator instance.
type Options struct {
	// Workers is the goroutine pool size for parallel gate application.
	// 0 means GOMAXPROCS. 1 forces serial execution.
	Workers int
	// ParallelThreshold is the minimum amplitude count before the worker
	// pool is engaged; below it serial loops win. 0 means a sane default.
	ParallelThreshold int
	// Seed for measurement sampling. 0 means a fixed default (runs are
	// deterministic by design; pass a seed to vary).
	Seed uint64
	// Pool injects an existing shared worker pool instead of letting the
	// state create its own: a job scheduler running many simulations
	// concurrently hands every State the same bounded pool so total
	// goroutine count stays fixed regardless of job fan-out. Workers is
	// overridden to the pool's width. The pool's lifetime belongs to the
	// injector; the State never closes it.
	Pool *Pool
}

// State is an n-qubit state vector.
type State struct {
	n      int
	amps   []complex128
	opts   Options
	rng    *core.RNG
	nGates uint64 // applied-gate counter (paper's evaluation currency)
	// pool is the persistent worker pool serving gate application,
	// probability reductions and (via WorkerPool/EnsurePool) the batched
	// expectation engine. Created once per State and shared with clones,
	// so one pool outlives every gate and Pauli term of an evaluation.
	pool *Pool
	// scratch holds one gather tile per pool slot for fused segments
	// whose qubits are not the low bits (see runSegment). It is never
	// shared with clones.
	scratch []complex128
	// support masks the qubits that may be 1 in a nonzero amplitude:
	// every amplitude with a bit outside it is zero. New and ResetZero
	// set it to 0 and RunFused grows it by each op's qubits, skipping
	// what it rules out; every other writer drops it to all qubits.
	support uint64
}

// ResolveWorkers normalizes a Workers option value to an actual worker
// count: 0 (or negative) means GOMAXPROCS, anything positive is returned
// unchanged. This is the single place the 0=GOMAXPROCS sentinel is
// resolved — other packages pass Workers through untouched or call this
// (enforced by the workerssemantics analyzer, cmd/vqelint).
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// dropSupport records that any amplitude may be nonzero: every writer of
// the amplitudes other than New, ResetZero and RunFused calls it.
func (s *State) dropSupport() { s.support = uint64(len(s.amps) - 1) }

// New allocates the |0…0⟩ state on n qubits.
func New(n int, opts Options) *State {
	dim := core.Dim(n)
	opts.Workers = ResolveWorkers(opts.Workers)
	if opts.ParallelThreshold <= 0 {
		opts.ParallelThreshold = tuning.GateParallel
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	if opts.Pool != nil {
		// Shared-pool injection: adopt the pool's resolved width so the
		// chunking (and therefore the floating-point reduction order) is a
		// function of the pool, not of the caller's Workers guess.
		opts.Workers = opts.Pool.Workers()
		s := &State{n: n, amps: make([]complex128, dim), opts: opts, rng: core.NewRNG(seed), pool: opts.Pool}
		s.amps[0] = 1
		return s
	}
	s := &State{n: n, amps: make([]complex128, dim), opts: opts, rng: core.NewRNG(seed)}
	s.amps[0] = 1
	if opts.Workers > 1 && dim >= tuning.ReduceParallel {
		// Large enough that some caller (gates at ParallelThreshold, the
		// expectation engine at its lower cutoff) will go parallel; start
		// the persistent pool now rather than per call.
		s.pool = NewPool(opts.Workers)
	}
	return s
}

// WorkerPool returns the state's persistent pool, or nil for states that
// run serial (Workers ≤ 1 or too small to ever parallelize).
func (s *State) WorkerPool() *Pool { return s.pool }

// EnsurePool returns the state's pool, creating one of the given width
// (0 = GOMAXPROCS) if the state does not have one yet — used by the
// expectation engine when a caller requests parallel reduction on a state
// whose own gate path is serial. An existing pool is returned unchanged
// regardless of the requested width.
func (s *State) EnsurePool(workers int) *Pool {
	if s.pool == nil {
		s.pool = NewPool(workers)
	}
	return s.pool
}

// Workers returns the resolved worker count (≥ 1).
func (s *State) Workers() int { return s.opts.Workers }

// ParallelThreshold returns the resolved minimum amplitude count for
// engaging the worker pool on gate application.
func (s *State) ParallelThreshold() int { return s.opts.ParallelThreshold }

// FromAmplitudes builds a state from an explicit amplitude vector (copied);
// the vector must have power-of-two length and unit norm.
func FromAmplitudes(amps []complex128, opts Options) (*State, error) {
	dim := len(amps)
	if dim == 0 || dim&(dim-1) != 0 {
		return nil, fmt.Errorf("%w: length %d not a power of two", core.ErrInvalidArgument, dim)
	}
	n := 0
	for 1<<uint(n) < dim {
		n++
	}
	norm := linalg.VecNorm(amps)
	if math.Abs(norm-1) > 1e-8 {
		return nil, fmt.Errorf("%w: norm %v != 1", core.ErrInvalidArgument, norm)
	}
	s := New(n, opts)
	copy(s.amps, amps)
	s.dropSupport()
	return s, nil
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// Dim returns the amplitude count 2ⁿ.
func (s *State) Dim() int { return len(s.amps) }

// Amplitudes returns the live amplitude slice (not a copy). Callers must
// not resize it; mutating it directly bypasses the gate counter. Callers
// may write through it, so the state stops assuming any amplitude is
// zero; the support is written only when it changes, so concurrent
// readers of an already dropped state do not race.
func (s *State) Amplitudes() []complex128 {
	if s.support != uint64(len(s.amps)-1) {
		s.dropSupport()
	}
	return s.amps
}

// AmplitudesCopy returns a defensive copy.
func (s *State) AmplitudesCopy() []complex128 {
	return append([]complex128(nil), s.amps...)
}

// GatesApplied reports how many unitary gates have been applied since
// creation (or the last ResetCounters).
func (s *State) GatesApplied() uint64 { return s.nGates }

// ResetCounters zeroes the applied-gate counter.
func (s *State) ResetCounters() { s.nGates = 0 }

// Clone duplicates the state, including RNG position and counters. The
// worker pool is shared, not duplicated: clones (scratch states, cache
// restores) reuse the parent's persistent goroutines.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: s.AmplitudesCopy(), opts: s.opts, rng: s.rng.Split(), nGates: s.nGates, pool: s.pool, support: s.support}
	return c
}

// CopyFrom overwrites s's amplitudes with those of src (same width). This
// is the cache-restore operation of the post-ansatz caching optimization.
func (s *State) CopyFrom(src *State) {
	if s.n != src.n {
		panic(core.ErrDimensionMismatch)
	}
	copy(s.amps, src.amps)
	s.dropSupport()
}

// ResetZero returns the state to |0…0⟩ without reallocating.
func (s *State) ResetZero() {
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[0] = 1
	s.support = 0
}

// Norm returns ‖ψ‖ (should be 1 up to rounding).
func (s *State) Norm() float64 { return linalg.VecNorm(s.amps) }

// InnerProduct returns ⟨s|o⟩.
func (s *State) InnerProduct(o *State) complex128 {
	if s.n != o.n {
		panic(core.ErrDimensionMismatch)
	}
	return linalg.VecDot(s.amps, o.amps)
}

// parallelFor splits [0,total) into contiguous chunks across the
// persistent worker pool. It falls back to inline execution below the
// parallel threshold or when the state runs serial.
func (s *State) parallelFor(total uint64, body func(lo, hi uint64)) {
	if int(total) < s.opts.ParallelThreshold || s.opts.Workers <= 1 || s.pool == nil {
		mPoolInline.Inc()
		body(0, total)
		return
	}
	s.pool.Run(total, s.opts.Workers, func(_ int, lo, hi uint64) { body(lo, hi) })
}

// parallelReduce sums body's per-chunk partials over [0,total), inline
// below the reduction threshold (tuning.ReduceParallel, lower than the
// gate threshold).
func (s *State) parallelReduce(total uint64, body func(lo, hi uint64) float64) float64 {
	if int(total) < tuning.ReduceParallel || s.opts.Workers <= 1 || s.pool == nil {
		mPoolInline.Inc()
		return body(0, total)
	}
	return s.pool.ReduceFloat(total, s.opts.Workers, body)
}

// Apply1Q applies a 2×2 unitary to qubit q. The reference interpreter
// runs every 1q matrix on the dense kernel, entries unchopped, so its
// amplitudes do not depend on the fused path's diagonal classification.
//
//vqesim:hotpath
func (s *State) Apply1Q(u *linalg.Matrix, q int) {
	if q < 0 || q >= s.n {
		panic(core.QubitError(q, s.n))
	}
	u00, u01 := u.At(0, 0), u.At(0, 1)
	u10, u11 := u.At(1, 0), u.At(1, 1)
	amps := s.amps
	s.parallelFor(uint64(len(amps)/2), func(lo, hi uint64) {
		dense1(amps, q, u00, u01, u10, u11, lo, hi)
	})
	s.dropSupport()
	s.nGates++
	mGate1Q.Inc()
}

// Apply2Q applies a 4×4 unitary to the ordered qubit pair (a,b) where a is
// the high-order bit of the gate's local index. The kernels get pointers
// to its own arrays, not a fusedOp: what the chunk closure captures is a
// heap object per gate, and small jobs are all per-gate cost.
//
//vqesim:hotpath
func (s *State) Apply2Q(u *linalg.Matrix, a, b int) {
	if a < 0 || a >= s.n {
		panic(core.QubitError(a, s.n))
	}
	if b < 0 || b >= s.n {
		panic(core.QubitError(b, s.n))
	}
	if a == b {
		panic(core.ErrInvalidArgument)
	}
	var m [16]complex128
	kind := classify2Q(u, &m)
	amps := s.amps
	quarter := uint64(len(amps) / 4)
	s.dropSupport()
	s.nGates++
	if kind == fusedDense2 {
		s.parallelFor(quarter, func(lo, hi uint64) { dense2(amps, a, b, &m, lo, hi) })
		mGate2QDense.Inc()
		return
	}
	// Diagonal matrices stay on the sparse kernel here (the interpreter
	// has no diagonal class), so amplitudes are identical to what Run has
	// always produced.
	var sp sparseRows
	sparseRowsOf(&m, &sp)
	s.parallelFor(quarter, func(lo, hi uint64) { sparse2(amps, a, b, &sp, lo, hi) })
	mGate2QSparse.Inc()
}

// applyCX is a fast path for the most common two-qubit gate: swap the
// |10⟩ and |11⟩ amplitudes of every pair, run by run.
//
//vqesim:hotpath
func (s *State) applyCX(ctrl, tgt int) {
	amps := s.amps
	s.parallelFor(uint64(len(amps)/4), func(lo, hi uint64) {
		for rest := lo; rest < hi; {
			end := runEnd(rest, hi, min(ctrl, tgt))
			_, _, x10, x11 := quad(amps, ctrl, tgt, rest, end)
			x11 = x11[:len(x10)]
			for k, v := range x10 {
				x10[k], x11[k] = x11[k], v
			}
			rest = end
		}
	})
	s.dropSupport()
	s.nGates++
	mGateCX.Inc()
}

// applyCZ is a fast path: phase flip on |11⟩.
//
//vqesim:hotpath
func (s *State) applyCZ(a, b int) {
	amps := s.amps
	s.parallelFor(uint64(len(amps)/4), func(lo, hi uint64) {
		for rest := lo; rest < hi; {
			end := runEnd(rest, hi, min(a, b))
			_, _, _, x11 := quad(amps, a, b, rest, end)
			for k, v := range x11 {
				x11[k] = -v
			}
			rest = end
		}
	})
	s.dropSupport()
	s.nGates++
	mGateCZ.Inc()
}

// applyRZ is a fast diagonal path on the diagonal kernel.
//
//vqesim:hotpath
func (s *State) applyRZ(theta float64, q int) {
	em := cmplx.Exp(complex(0, -theta/2))
	ep := cmplx.Exp(complex(0, theta/2))
	amps := s.amps
	s.parallelFor(uint64(len(amps)/2), func(lo, hi uint64) { diag1(amps, q, em, ep, lo, hi) })
	s.dropSupport()
	s.nGates++
	mGateRZ.Inc()
}

// ApplyGate dispatches a single gate. Measurement markers perform a
// destructive computational-basis measurement (result discarded — use
// Measure for the outcome); Reset forces a qubit to |0⟩; Barrier is a
// no-op at simulation time.
func (s *State) ApplyGate(g gate.Gate) {
	switch g.Kind {
	case gate.Barrier, gate.I:
		return
	case gate.Measure:
		s.Measure(g.Qubits[0])
		return
	case gate.Reset:
		s.ResetQubit(g.Qubits[0])
		return
	case gate.CX:
		s.applyCX(g.Qubits[0], g.Qubits[1])
		return
	case gate.CZ:
		s.applyCZ(g.Qubits[0], g.Qubits[1])
		return
	case gate.RZ:
		s.applyRZ(g.Params[0], g.Qubits[0])
		return
	}
	if kernelArity(g) == 1 {
		s.Apply1Q(g.Matrix2(), g.Qubits[0])
	} else {
		s.Apply2Q(g.Matrix4(), g.Qubits[0], g.Qubits[1])
	}
}

// Run applies every gate of a circuit in order.
func (s *State) Run(c *circuit.Circuit) {
	if c.NumQubits > s.n {
		panic(core.ErrDimensionMismatch)
	}
	start := telemetry.Now()
	for _, g := range c.Gates {
		s.ApplyGate(g)
	}
	mCircuitRun.Since(start)
}

// Probability returns P(qubit q = 1). The reduction runs on the worker
// pool above the parallel threshold (this is a hot loop on the
// measurement and sampling paths).
//
//vqesim:hotpath
func (s *State) Probability(q int) float64 {
	if q < 0 || q >= s.n {
		panic(core.QubitError(q, s.n))
	}
	amps := s.amps
	return s.parallelReduce(uint64(len(amps)/2), func(lo, hi uint64) float64 {
		p := 0.0
		for rest := lo; rest < hi; rest++ {
			i1 := core.InsertZeroBit(rest, q) | 1<<uint(q)
			a := amps[i1]
			p += real(a)*real(a) + imag(a)*imag(a)
		}
		return p
	})
}

// Probabilities returns |ψ_i|² for every basis state (allocates). The fill
// is chunked over the worker pool; chunks write disjoint ranges.
func (s *State) Probabilities() []float64 {
	amps := s.amps
	out := make([]float64, len(amps))
	s.parallelFor(uint64(len(amps)), func(lo, hi uint64) {
		for i := lo; i < hi; i++ {
			a := amps[i]
			out[i] = real(a)*real(a) + imag(a)*imag(a)
		}
	})
	return out
}

// Measure performs a destructive measurement of qubit q, collapsing and
// renormalizing the state, and returns the outcome (0 or 1).
func (s *State) Measure(q int) int {
	p1 := s.Probability(q)
	outcome := 0
	if s.rng.Float64() < p1 {
		outcome = 1
	}
	s.collapse(q, outcome, p1)
	return outcome
}

// ResetQubit measures q and applies X if the outcome was 1, forcing |0⟩.
func (s *State) ResetQubit(q int) {
	if s.Measure(q) == 1 {
		s.Apply1Q(gate.New(gate.X).Matrix2(), q)
		s.nGates-- // bookkeeping gate, not part of the program
	}
}

// collapse projects qubit q onto outcome and renormalizes in place.
//
//vqesim:hotpath
func (s *State) collapse(q, outcome int, p1 float64) {
	pKeep := p1
	if outcome == 0 {
		pKeep = 1 - p1
	}
	if pKeep <= 0 {
		pKeep = 1e-300
	}
	scale := complex(1/math.Sqrt(pKeep), 0)
	keepBit := outcome == 1
	for rest := uint64(0); rest < uint64(len(s.amps)/2); rest++ {
		i0 := core.InsertZeroBit(rest, q)
		i1 := i0 | 1<<uint(q)
		if keepBit {
			s.amps[i0] = 0
			s.amps[i1] *= scale
		} else {
			s.amps[i1] = 0
			s.amps[i0] *= scale
		}
	}
	s.dropSupport()
}

// SampleCounts draws shots samples from the current distribution and
// returns a histogram keyed by basis-state index. The state is not
// collapsed — this models the repeated-preparation sampling workflow that
// the paper's direct-expectation optimization replaces (§4.2.1).
func (s *State) SampleCounts(shots int) map[uint64]int {
	return SampleProbabilities(s.Probabilities(), shots, s.rng)
}

// SampleProbabilities draws shots outcomes from a probability vector (not
// necessarily normalized) with rng: a binary search of the prefix sums per
// shot. It is the sampler of both the state vector and the density-matrix
// diagonal.
func SampleProbabilities(probs []float64, shots int, rng *core.RNG) map[uint64]int {
	// Prefix sums for binary search.
	cum := make([]float64, len(probs)+1)
	for i, p := range probs {
		cum[i+1] = cum[i] + p
	}
	total := cum[len(probs)]
	out := make(map[uint64]int)
	for k := 0; k < shots; k++ {
		r := rng.Float64() * total
		lo, hi := 0, len(probs)
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] <= r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= len(probs) {
			lo = len(probs) - 1
		}
		out[uint64(lo)]++
	}
	return out
}
