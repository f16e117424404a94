// Package cluster implements a rank-partitioned state-vector backend that
// simulates NWQ-Sim's multi-node (PGAS / SV-Sim) execution model in a
// single process. The 2ⁿ amplitudes are split across R = 2ʳ ranks; the
// low n−r qubits are "local" (gates touch only a rank's own block) and the
// high r qubits are "global" (gates require pairwise block exchange, the
// analogue of NVSHMEM/MPI communication on Perlmutter). Communication
// volume is tracked so the benchmarks can report the local/global gate
// cost asymmetry that dominates multi-node scaling.
package cluster

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/linalg"
	"repro/internal/resilience"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// Communication instruments mirroring CommStats into the process-wide
// telemetry scope, so run reports show simulated shard traffic (the
// NVSHMEM/MPI byte volume the paper's multi-node scaling hinges on)
// without threading a Cluster handle to the reporter.
var (
	mCommMessages = telemetry.GetCounter("cluster.comm.messages")
	mCommBytes    = telemetry.GetCounter("cluster.comm.bytes")
	mQubitSwaps   = telemetry.GetCounter("cluster.comm.swaps")
	mLocalGates   = telemetry.GetCounter("cluster.gates.local")
	mGlobalGates  = telemetry.GetCounter("cluster.gates.global")
)

// PoolMinAmps is the minimum per-rank amplitude count before a
// multi-rank cluster starts its rank worker pool; below it the inline
// rank loop is faster than goroutine handoff. Exported only so the
// daemon's capability report can keep publishing it.
const PoolMinAmps = 1 << 11

// CommStats records simulated inter-rank traffic.
type CommStats struct {
	Messages         int    // block transfers between rank pairs
	BytesTransferred uint64 // total payload
	LocalGates       int    // gates applied without communication
	GlobalGates      int    // gates requiring exchange
	QubitSwaps       int    // local/global remap operations
}

// Cluster is a distributed state vector.
type Cluster struct {
	n       int // total qubits
	rankLog int // log2(ranks)
	localN  int // local qubits per rank = n - rankLog
	blocks  [][]complex128
	workers int
	pool    *state.Pool // persistent per-cluster rank pool (one goroutine per simulated rank)
	stats   CommStats
	statsMu sync.Mutex

	opts Options
	// recv / send are per-rank exchange buffers, allocated only when
	// verified communication is on: a transfer lands in recv before it is
	// checksum-validated and applied, so a failed attempt can be retried
	// from the intact source.
	recv [][]complex128
	send [][]complex128
}

// New creates an n-qubit cluster state |0…0⟩ over numRanks ranks
// (numRanks must be a power of two, ≤ 2ⁿ⁻²  so that at least two local
// qubits exist for two-qubit gate remapping).
func New(n, numRanks int) (*Cluster, error) {
	return NewWithOptions(n, numRanks, Options{})
}

// NewWithOptions creates a cluster with an explicit resilience
// configuration (fault injection, verified transfers, watchdog).
func NewWithOptions(n, numRanks int, opts Options) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need ≥2 qubits", core.ErrInvalidArgument)
	}
	if numRanks < 1 || numRanks&(numRanks-1) != 0 {
		return nil, fmt.Errorf("%w: ranks %d not a power of two", core.ErrInvalidArgument, numRanks)
	}
	rankLog := bits.TrailingZeros(uint(numRanks))
	if rankLog > n-2 {
		return nil, fmt.Errorf("%w: %d ranks leave <2 local qubits of %d", core.ErrInvalidArgument, numRanks, n)
	}
	localDim := 1 << uint(n-rankLog)
	c := &Cluster{n: n, rankLog: rankLog, localN: n - rankLog, workers: numRanks, opts: opts}
	c.blocks = make([][]complex128, numRanks)
	for r := range c.blocks {
		c.blocks[r] = make([]complex128, localDim)
	}
	c.blocks[0][0] = 1
	if numRanks > 1 && localDim >= PoolMinAmps {
		// One persistent goroutine per simulated rank, created once and
		// reused by every gate instead of spawning per gate application.
		// Below PoolMinAmps the inline rank loop beats the goroutine
		// handoff, so no pool is started
		// (eachRank/eachRankPair fall back to inline execution).
		c.pool = state.NewPool(numRanks)
	}
	if c.verifiedComm() {
		c.recv = make([][]complex128, numRanks)
		c.send = make([][]complex128, numRanks)
		for r := range c.recv {
			c.recv[r] = make([]complex128, localDim)
			c.send[r] = make([]complex128, localDim)
		}
	}
	return c, nil
}

// NumQubits returns the register width.
func (c *Cluster) NumQubits() int { return c.n }

// NumRanks returns the rank count.
func (c *Cluster) NumRanks() int { return len(c.blocks) }

// Stats returns a consistent copy of the communication counters. The
// lock matters: addComm runs on the rank pool's worker goroutines, so an
// unguarded read here would race with in-flight global gates.
func (c *Cluster) Stats() CommStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// isLocal reports whether qubit q lives inside each rank's block.
func (c *Cluster) isLocal(q int) bool { return q < c.localN }

// eachRank runs body(rank) concurrently over all ranks on the persistent
// rank pool (inline for a single-rank cluster).
func (c *Cluster) eachRank(body func(r int)) {
	if c.pool == nil {
		for r := range c.blocks {
			body(r)
		}
		return
	}
	// One chunk per rank: Run with chunks == ranks yields exactly the
	// ranges [r, r+1).
	c.pool.Run(uint64(len(c.blocks)), len(c.blocks), func(_ int, lo, _ uint64) {
		body(int(lo))
	})
}

// eachRankPair runs body over all rank pairs differing in globalBit.
func (c *Cluster) eachRankPair(globalBit int, body func(r0, r1 int)) {
	bit := 1 << uint(globalBit)
	var pairs []int
	for r := range c.blocks {
		if r&bit == 0 {
			pairs = append(pairs, r)
		}
	}
	if c.pool == nil || len(pairs) == 1 {
		for _, r0 := range pairs {
			body(r0, r0|bit)
		}
		return
	}
	c.pool.Run(uint64(len(pairs)), len(pairs), func(_ int, lo, _ uint64) {
		r0 := pairs[lo]
		body(r0, r0|bit)
	})
}

func (c *Cluster) addComm(messages int, bytes uint64) {
	c.statsMu.Lock()
	c.stats.Messages += messages
	c.stats.BytesTransferred += bytes
	c.statsMu.Unlock()
	mCommMessages.Add(int64(messages))
	mCommBytes.Add(int64(bytes))
}

// Gate-census bumps, all under statsMu so Stats() can read concurrently
// with gate application.
func (c *Cluster) noteLocalGate() {
	c.statsMu.Lock()
	c.stats.LocalGates++
	c.statsMu.Unlock()
	mLocalGates.Inc()
}

func (c *Cluster) noteGlobalGate() {
	c.statsMu.Lock()
	c.stats.GlobalGates++
	c.statsMu.Unlock()
	mGlobalGates.Inc()
}

func (c *Cluster) noteSwap() {
	c.statsMu.Lock()
	c.stats.QubitSwaps++
	c.statsMu.Unlock()
	mQubitSwaps.Inc()
}

// reclassifyLocalAsGlobal undoes one local-gate count for a two-qubit
// gate that needed remapping (it was already counted as global).
func (c *Cluster) reclassifyLocalAsGlobal() {
	c.statsMu.Lock()
	c.stats.LocalGates--
	c.statsMu.Unlock()
	mLocalGates.Add(-1)
}

// apply1QLocal applies a 2×2 matrix to a local qubit: embarrassingly
// parallel across ranks.
func (c *Cluster) apply1QLocal(u *linalg.Matrix, q int) {
	u00, u01, u10, u11 := u.At(0, 0), u.At(0, 1), u.At(1, 0), u.At(1, 1)
	half := uint64(len(c.blocks[0]) / 2)
	c.eachRank(func(r int) {
		blk := c.blocks[r]
		for rest := uint64(0); rest < half; rest++ {
			i0 := core.InsertZeroBit(rest, q)
			i1 := i0 | 1<<uint(q)
			a0, a1 := blk[i0], blk[i1]
			blk[i0] = u00*a0 + u01*a1
			blk[i1] = u10*a0 + u11*a1
		}
	})
	c.noteLocalGate()
}

// apply1QGlobal applies a 2×2 matrix to a global qubit: every rank pair
// exchanges its full block (the SV-Sim all-pairs pattern). Under
// verified communication each side receives its partner's block into a
// staging buffer via transfer(), so a faulted exchange retries from the
// still-intact source block.
func (c *Cluster) apply1QGlobal(ctx context.Context, u *linalg.Matrix, q int) error {
	u00, u01, u10, u11 := u.At(0, 0), u.At(0, 1), u.At(1, 0), u.At(1, 1)
	gbit := q - c.localN
	blockBytes := uint64(len(c.blocks[0])) * state.BytesPerAmp
	verified := c.verifiedComm()
	var errMu sync.Mutex
	var firstErr error
	c.eachRankPair(gbit, func(r0, r1 int) {
		b0, b1 := c.blocks[r0], c.blocks[r1]
		if verified {
			if err := c.transfer(ctx, c.recv[r0], b1); err == nil {
				err = c.transfer(ctx, c.recv[r1], b0)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			} else {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			r0recv, r1recv := c.recv[r0], c.recv[r1]
			for i := range b0 {
				b0[i] = u00*b0[i] + u01*r0recv[i]
				b1[i] = u10*r1recv[i] + u11*b1[i]
			}
		} else {
			// "Receive" the partner block (simulated transfer), then update.
			for i := range b0 {
				a0, a1 := b0[i], b1[i]
				b0[i] = u00*a0 + u01*a1
				b1[i] = u10*a0 + u11*a1
			}
		}
		c.addComm(2, 2*blockBytes)
	})
	if firstErr != nil {
		return firstErr
	}
	c.noteGlobalGate()
	return nil
}

// swapLocalGlobal exchanges qubit roles: local qubit l ↔ global qubit g.
// Amplitudes where the two bits differ migrate between rank pairs; this is
// the qubit-remapping communication primitive used before two-qubit gates
// touching global qubits.
func (c *Cluster) swapLocalGlobal(ctx context.Context, l, g int) error {
	gbit := g - c.localN
	half := uint64(len(c.blocks[0]) / 2)
	halfBytes := half * state.BytesPerAmp
	verified := c.verifiedComm()
	var errMu sync.Mutex
	var firstErr error
	c.eachRankPair(gbit, func(r0, r1 int) {
		b0, b1 := c.blocks[r0], c.blocks[r1]
		if verified {
			// Gather the migrating halves into send buffers, exchange them
			// cross-wise through verified transfers, then scatter back —
			// the gather copy is what lets a faulted transfer retry.
			s0, s1 := c.send[r0][:half], c.send[r1][:half]
			for rest := uint64(0); rest < half; rest++ {
				s0[rest] = b0[core.InsertZeroBit(rest, l)|1<<uint(l)] // L=1 in r0
				s1[rest] = b1[core.InsertZeroBit(rest, l)]            // L=0 in r1
			}
			if err := c.transfer(ctx, c.recv[r1][:half], s0); err == nil {
				err = c.transfer(ctx, c.recv[r0][:half], s1)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			} else {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			d0, d1 := c.recv[r0][:half], c.recv[r1][:half]
			for rest := uint64(0); rest < half; rest++ {
				b0[core.InsertZeroBit(rest, l)|1<<uint(l)] = d0[rest]
				b1[core.InsertZeroBit(rest, l)] = d1[rest]
			}
		} else {
			// Rank r0 holds G=0; its L=1 entries swap with r1's L=0 entries.
			for rest := uint64(0); rest < half; rest++ {
				i1 := core.InsertZeroBit(rest, l) | 1<<uint(l) // L=1 in r0
				i0 := core.InsertZeroBit(rest, l)              // L=0 in r1
				b0[i1], b1[i0] = b1[i0], b0[i1]
			}
		}
		c.addComm(2, 2*halfBytes)
	})
	if firstErr != nil {
		return firstErr
	}
	c.noteSwap()
	return nil
}

// apply2QLocal applies a 4×4 matrix to two local qubits (a = high bit).
func (c *Cluster) apply2QLocal(u *linalg.Matrix, a, b int) {
	var m [4][4]complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m[i][j] = u.At(i, j)
		}
	}
	quarter := uint64(len(c.blocks[0]) / 4)
	c.eachRank(func(r int) {
		blk := c.blocks[r]
		for rest := uint64(0); rest < quarter; rest++ {
			base := core.InsertTwoZeroBits(rest, a, b)
			i0 := base
			i1 := base | 1<<uint(b)
			i2 := base | 1<<uint(a)
			i3 := i1 | 1<<uint(a)
			v0, v1, v2, v3 := blk[i0], blk[i1], blk[i2], blk[i3]
			blk[i0] = m[0][0]*v0 + m[0][1]*v1 + m[0][2]*v2 + m[0][3]*v3
			blk[i1] = m[1][0]*v0 + m[1][1]*v1 + m[1][2]*v2 + m[1][3]*v3
			blk[i2] = m[2][0]*v0 + m[2][1]*v1 + m[2][2]*v2 + m[2][3]*v3
			blk[i3] = m[3][0]*v0 + m[3][1]*v1 + m[3][2]*v2 + m[3][3]*v3
		}
	})
	c.noteLocalGate()
}

// freeLocalQubits returns local qubits not in `used`, lowest first.
func (c *Cluster) freeLocalQubits(used ...int) []int {
	inUse := map[int]bool{}
	for _, q := range used {
		inUse[q] = true
	}
	var out []int
	for q := 0; q < c.localN; q++ {
		if !inUse[q] {
			out = append(out, q)
		}
	}
	return out
}

// applyGate dispatches one gate, remapping global qubits to local slots as
// needed. Non-unitary markers are rejected (the cluster backend serves
// expectation-value workloads; use the single-node engine for mid-circuit
// measurement). Cancellation aborts in-flight retries, and exhausted
// transfers surface as errors.
func (c *Cluster) applyGate(ctx context.Context, g gate.Gate) error {
	if g.Kind == gate.Barrier || g.Kind == gate.I {
		return nil
	}
	if !g.IsUnitary() {
		panic(fmt.Errorf("%w: cluster backend cannot apply %v", core.ErrInvalidArgument, g.Kind))
	}
	switch g.Arity() {
	case 1:
		q := g.Qubits[0]
		if q < 0 || q >= c.n {
			panic(core.QubitError(q, c.n))
		}
		u := g.Matrix2()
		if c.isLocal(q) {
			c.apply1QLocal(u, q)
			return nil
		}
		return c.apply1QGlobal(ctx, u, q)
	case 2:
		a, b := g.Qubits[0], g.Qubits[1]
		if a < 0 || a >= c.n || b < 0 || b >= c.n {
			panic(core.QubitError(a, c.n))
		}
		u := g.Matrix4()
		// Remap any global qubit onto a free local slot, apply, unmap.
		swaps := [][2]int{}
		if !c.isLocal(a) || !c.isLocal(b) {
			free := c.freeLocalQubits(a, b)
			fi := 0
			if !c.isLocal(a) {
				if err := c.swapLocalGlobal(ctx, free[fi], a); err != nil {
					return err
				}
				swaps = append(swaps, [2]int{free[fi], a})
				a = free[fi]
				fi++
			}
			if !c.isLocal(b) {
				if err := c.swapLocalGlobal(ctx, free[fi], b); err != nil {
					return err
				}
				swaps = append(swaps, [2]int{free[fi], b})
				b = free[fi]
				fi++
			}
			c.noteGlobalGate()
		}
		c.apply2QLocal(u, a, b)
		if len(swaps) > 0 {
			c.reclassifyLocalAsGlobal() // counted as a global gate above
		}
		for i := len(swaps) - 1; i >= 0; i-- {
			if err := c.swapLocalGlobal(ctx, swaps[i][0], swaps[i][1]); err != nil {
				return err
			}
		}
		return nil
	default:
		panic(fmt.Sprintf("cluster: arity %d", g.Arity()))
	}
}

// maxWatchdogReplays bounds rollback-and-replay attempts per watchdog
// interval before the drift is reported as a hard error.
const maxWatchdogReplays = 8

// RunContext applies a circuit under a context. When the norm-drift
// watchdog is enabled (Options.NormCheckEvery > 0) the run periodically
// checks the invariant ‖ψ‖ = 1 that unitary circuits preserve; drift
// beyond NormTol means a silent corruption slipped past the transfer
// checksums, and the run rolls back to the last consistent snapshot and
// replays the gates since. Replays are bounded, so a persistently
// faulting exchange eventually surfaces as an error.
func (c *Cluster) RunContext(ctx context.Context, circ *circuit.Circuit) error {
	if circ.NumQubits > c.n {
		return fmt.Errorf("cluster: circuit needs %d qubits, register has %d: %w", circ.NumQubits, c.n, core.ErrDimensionMismatch)
	}
	if !c.watchdogOn() {
		for _, g := range circ.Gates {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := c.applyGate(ctx, g); err != nil {
				return err
			}
		}
		return nil
	}
	every := c.opts.NormCheckEvery
	tol := c.normTol()
	snap := c.snapshot(nil)
	snapIdx := 0
	replays := 0
	for i := 0; i < len(circ.Gates); {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.applyGate(ctx, circ.Gates[i]); err != nil {
			return err
		}
		i++
		if i%every != 0 && i != len(circ.Gates) {
			continue
		}
		if math.Abs(c.Norm()-1) > tol {
			replays++
			if replays > maxWatchdogReplays {
				return fmt.Errorf("cluster: norm drift persists after %d replays: %w", maxWatchdogReplays, resilience.ErrCorrupted)
			}
			mRollbacks.Inc()
			mReplayedGates.Add(int64(i - snapIdx))
			c.restore(snap)
			i = snapIdx
			continue
		}
		snap = c.snapshot(snap)
		snapIdx = i
		replays = 0
	}
	return nil
}

// Gather copies the distributed amplitudes into one contiguous vector
// (rank r owns indices [r·2^localN, (r+1)·2^localN)).
func (c *Cluster) Gather() []complex128 {
	out := make([]complex128, 0, len(c.blocks)*len(c.blocks[0]))
	for _, blk := range c.blocks {
		out = append(out, blk...)
	}
	return out
}

// ToState gathers into a single-node State (for measurement/expectation).
func (c *Cluster) ToState() (*state.State, error) {
	return state.FromAmplitudes(c.Gather(), state.Options{})
}

// Simulate runs circ from |0…0⟩ on a fresh cluster and gathers the result
// into a single-node State. The rank count is clamped so that every rank
// keeps at least two local qubits: small circuits run on fewer ranks.
func Simulate(ctx context.Context, circ *circuit.Circuit, ranks int, opts Options) (*state.State, error) {
	if ranks < 1 {
		ranks = 1
	}
	for ranks > 1 && ranks > 1<<uint(circ.NumQubits-2) {
		ranks /= 2
	}
	c, err := NewWithOptions(circ.NumQubits, ranks, opts)
	if err != nil {
		return nil, err
	}
	if err := c.RunContext(ctx, circ); err != nil {
		return nil, err
	}
	return c.ToState()
}

// Norm returns ‖ψ‖ computed as a distributed reduction.
func (c *Cluster) Norm() float64 {
	partial := make([]float64, len(c.blocks))
	c.eachRank(func(r int) {
		s := 0.0
		for _, a := range c.blocks[r] {
			s += real(a)*real(a) + imag(a)*imag(a)
		}
		partial[r] = s
	})
	total := 0.0
	for _, p := range partial {
		total += p
	}
	return math.Sqrt(total)
}
