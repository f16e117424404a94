package circuit

import (
	"math"

	"repro/internal/gate"
	"repro/internal/linalg"
)

// Transpiler options. The paper (§4.3) motivates capping fusion at
// two-qubit blocks: a fused k-qubit gate costs 4^k amplitude work, so wide
// fusion destroys the very savings it seeks.
type TranspileOptions struct {
	FuseWidth      int  // 0 = no fusion, 1 = 1-qubit chains, 2 = up to 2-qubit blocks
	CancelInverses bool // remove adjacent gate/inverse pairs
	DropIdentities bool // remove I gates and zero-angle rotations
}

// DefaultTranspileOptions mirrors NWQ-Sim's production configuration.
func DefaultTranspileOptions() TranspileOptions {
	return TranspileOptions{FuseWidth: 2, CancelInverses: true, DropIdentities: true}
}

// Transpile applies the configured optimization passes and returns a new
// circuit. The input circuit is not modified.
func Transpile(c *Circuit, opts TranspileOptions) *Circuit {
	out := c.Clone()
	if opts.DropIdentities {
		out = DropIdentities(out)
	}
	if opts.CancelInverses {
		out = CancelInverses(out)
	}
	switch {
	case opts.FuseWidth >= 2:
		out = Fuse(out, 2)
	case opts.FuseWidth == 1:
		out = Fuse(out, 1)
	}
	return out
}

// DropIdentities removes I gates and (near-)zero-angle single-parameter
// rotations, which arise frequently from ansatz construction with zeroed
// parameters.
func DropIdentities(c *Circuit) *Circuit {
	out := New(c.NumQubits)
	for _, g := range c.Gates {
		if g.Kind == gate.I {
			continue
		}
		if len(g.Params) == 1 && isZeroAngleKind(g.Kind) && math.Abs(g.Params[0]) < 1e-14 {
			continue
		}
		out.Append(g.Clone())
	}
	return out
}

func isZeroAngleKind(k gate.Kind) bool {
	switch k {
	case gate.RX, gate.RY, gate.RZ, gate.P, gate.CP, gate.CRX, gate.CRY, gate.CRZ,
		gate.RXX, gate.RYY, gate.RZZ:
		return true
	}
	return false
}

// CancelInverses removes pairs (g, h) where h immediately follows g on the
// same qubit set (with no intervening gate touching those qubits) and
// h·g = I. It iterates to a fixpoint so that e.g. H X X H fully cancels.
func CancelInverses(c *Circuit) *Circuit {
	gates := make([]gate.Gate, len(c.Gates))
	copy(gates, c.Gates)
	for {
		removed := cancelOnePass(gates, c.NumQubits)
		if removed == nil {
			break
		}
		gates = removed
	}
	out := New(c.NumQubits)
	for _, g := range gates {
		out.Append(g)
	}
	return out
}

// cancelOnePass returns the gate list with one round of cancellations, or
// nil if nothing changed.
func cancelOnePass(gates []gate.Gate, n int) []gate.Gate {
	// lastOn[q] = index into gates of the most recent surviving unitary
	// gate touching q (or -1).
	lastOn := make([]int, n)
	for i := range lastOn {
		lastOn[i] = -1
	}
	dead := make([]bool, len(gates))
	changed := false
	for i, g := range gates {
		if !g.IsUnitary() {
			// Barriers and measurements block cancellation across them.
			for _, q := range g.Qubits {
				lastOn[q] = -1
			}
			if g.Kind == gate.Barrier {
				for q := range lastOn {
					lastOn[q] = -1
				}
			}
			continue
		}
		prev := -1
		blocked := false
		for _, q := range g.Qubits {
			p := lastOn[q]
			if prev == -1 {
				prev = p
			} else if p != prev {
				blocked = true
			}
		}
		if !blocked && prev >= 0 && !dead[prev] && sameQubitSet(gates[prev], g) && isInversePair(gates[prev], g) {
			dead[prev] = true
			dead[i] = true
			changed = true
			// The qubits become "open" again: the gate before prev (if
			// any) is unknown here, so conservatively reset; the next
			// fixpoint round catches newly adjacent pairs.
			for _, q := range g.Qubits {
				lastOn[q] = -1
			}
			continue
		}
		for _, q := range g.Qubits {
			lastOn[q] = i
		}
	}
	if !changed {
		return nil
	}
	out := make([]gate.Gate, 0, len(gates))
	for i, g := range gates {
		if !dead[i] {
			out = append(out, g)
		}
	}
	return out
}

func sameQubitSet(a, b gate.Gate) bool {
	if a.Arity() != b.Arity() {
		return false
	}
	switch a.Arity() {
	case 1:
		return a.Qubits[0] == b.Qubits[0]
	case 2:
		return (a.Qubits[0] == b.Qubits[0] && a.Qubits[1] == b.Qubits[1]) ||
			(a.Qubits[0] == b.Qubits[1] && a.Qubits[1] == b.Qubits[0])
	}
	return false
}

// isInversePair reports whether h·g == I (up to global phase) for gates on
// the same qubit set.
func isInversePair(g, h gate.Gate) bool {
	switch g.Arity() {
	case 1:
		return h.Matrix2().Mul(g.Matrix2()).EqualUpToPhase(linalg.Identity(2), 1e-12)
	case 2:
		gm := g.Matrix4()
		hm := h.Matrix4()
		if g.Qubits[0] != h.Qubits[0] {
			hm = permuteQubits4(hm)
		}
		return hm.Mul(gm).EqualUpToPhase(linalg.Identity(4), 1e-12)
	}
	return false
}

// permuteQubits4 conjugates a 4×4 matrix with SWAP, converting between
// (a,b) and (b,a) qubit orderings.
func permuteQubits4(m *linalg.Matrix) *linalg.Matrix {
	sw := gate.New(gate.SWAP, 0, 1).Matrix4()
	return sw.Mul(m).Mul(sw)
}

// fusionBlock is an in-flight fused unitary over one or two qubits.
// qubits[0] is the high-order bit of the local index.
type fusionBlock struct {
	qubits []int
	mat    *linalg.Matrix
	nGates int // source gates absorbed (for bookkeeping)
}

// Fuse merges adjacent gates into unitary blocks of at most maxWidth
// qubits (1 or 2), the optimization of paper §4.3. Barriers and
// non-unitary markers flush pending blocks and are preserved.
//
// A 1-qubit block that is flushed rather than absorbed into a 2-qubit
// block folds into the last 2-qubit block emitted on its wire, provided
// no gate, marker or barrier has touched the wire in between: nothing
// emitted after that block acts on the wire, so the 1-qubit block
// commutes with all of it. A ladder of 2-qubit blocks followed by a
// rotation layer so keeps one block per rung instead of emitting every
// rotation on its own.
func Fuse(c *Circuit, maxWidth int) *Circuit {
	if maxWidth < 1 {
		maxWidth = 1
	}
	if maxWidth > 2 {
		maxWidth = 2
	}
	out := New(c.NumQubits)
	open := map[int]*fusionBlock{} // qubit → its open block
	var order []*fusionBlock       // flush order
	// emitted[q] is the index in out.Gates of the last 2-qubit block
	// emitted on wire q, or -1 once anything else has touched q; an open
	// 1-qubit block on q leaves it set, as the block's fold target.
	emitted := make([]int, c.NumQubits)
	for q := range emitted {
		emitted[q] = -1
	}
	untouch := func(qs []int) {
		for _, q := range qs {
			emitted[q] = -1
		}
	}

	flushBlock := func(b *fusionBlock) {
		if b == nil {
			return
		}
		for i, ob := range order {
			if ob == b {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		for _, q := range b.qubits {
			if open[q] == b {
				delete(open, q)
			}
		}
		if q := b.qubits[0]; len(b.qubits) == 1 && emitted[q] >= 0 {
			last := &out.Gates[emitted[q]]
			last.Matrix = lift1to2(b.mat, q, last.Qubits).Mul(last.Matrix)
			return
		}
		untouch(b.qubits)
		if emitBlock(out, b) && len(b.qubits) == 2 {
			for _, q := range b.qubits {
				emitted[q] = len(out.Gates) - 1
			}
		}
	}
	flushAll := func() {
		for len(order) > 0 {
			flushBlock(order[0])
		}
	}
	newBlock := func(qubits []int, mat *linalg.Matrix, n int) *fusionBlock {
		b := &fusionBlock{qubits: qubits, mat: mat, nGates: n}
		for _, q := range qubits {
			open[q] = b
		}
		order = append(order, b)
		return b
	}

	for _, g := range c.Gates {
		if !g.IsUnitary() {
			if g.Kind == gate.Barrier {
				flushAll()
				for q := range emitted {
					emitted[q] = -1
				}
			} else {
				for _, q := range g.Qubits {
					flushBlock(open[q])
				}
				untouch(g.Qubits)
			}
			out.Append(g.Clone())
			continue
		}
		switch g.Arity() {
		case 1:
			q := g.Qubits[0]
			u := g.Matrix2()
			if b, ok := open[q]; ok {
				// Absorb into the existing block.
				if len(b.qubits) == 1 {
					b.mat = u.Mul(b.mat)
				} else {
					b.mat = lift1to2(u, q, b.qubits).Mul(b.mat)
				}
				b.nGates++
			} else {
				newBlock([]int{q}, u, 1)
			}
		case 2:
			if maxWidth < 2 {
				// Two-qubit gates pass through; they still break 1q chains.
				for _, q := range g.Qubits {
					flushBlock(open[q])
				}
				untouch(g.Qubits)
				out.Append(g.Clone())
				continue
			}
			a, b := g.Qubits[0], g.Qubits[1]
			u := g.Matrix4()
			ba, bb := open[a], open[b]
			switch {
			case ba != nil && ba == bb && len(ba.qubits) == 2:
				// Same 2q block; align qubit order then multiply.
				if ba.qubits[0] != a {
					u = permuteQubits4(u)
				}
				ba.mat = u.Mul(ba.mat)
				ba.nGates++
			default:
				// Flush any conflicting 2q blocks; absorb compatible 1q
				// blocks into a fresh 2q block.
				if ba != nil && len(ba.qubits) == 2 {
					flushBlock(ba)
					ba = nil
				}
				if bb != nil && len(bb.qubits) == 2 {
					flushBlock(bb)
					bb = nil
				}
				pre := linalg.Identity(4)
				n := 1
				if ba != nil {
					pre = lift1to2(ba.mat, a, []int{a, b}).Mul(pre)
					n += ba.nGates
					removeBlock(&order, open, ba)
				}
				if bb != nil {
					pre = lift1to2(bb.mat, b, []int{a, b}).Mul(pre)
					n += bb.nGates
					removeBlock(&order, open, bb)
				}
				newBlock([]int{a, b}, u.Mul(pre), n)
			}
		default:
			flushAll()
			untouch(g.Qubits)
			out.Append(g.Clone())
		}
	}
	flushAll()
	return out
}

// removeBlock drops b from the open map and flush order without emitting.
func removeBlock(order *[]*fusionBlock, open map[int]*fusionBlock, b *fusionBlock) {
	for i, ob := range *order {
		if ob == b {
			*order = append((*order)[:i], (*order)[i+1:]...)
			break
		}
	}
	for _, q := range b.qubits {
		if open[q] == b {
			delete(open, q)
		}
	}
}

// lift1to2 embeds a 2×2 unitary acting on qubit q into the 4×4 space of
// blockQubits (blockQubits[0] = high bit).
func lift1to2(u *linalg.Matrix, q int, blockQubits []int) *linalg.Matrix {
	if blockQubits[0] == q {
		return u.Kron(linalg.Identity(2))
	}
	return linalg.Identity(2).Kron(u)
}

// emitBlock appends a block as a fused gate, collapsing trivial cases,
// and reports whether it appended one.
func emitBlock(out *Circuit, b *fusionBlock) bool {
	if len(b.qubits) == 1 {
		if b.mat.EqualUpToPhase(linalg.Identity(2), 1e-12) {
			return false
		}
		out.Append(gate.Gate{Kind: gate.Fused1Q, Qubits: []int{b.qubits[0]}, Matrix: b.mat})
		return true
	}
	if b.mat.EqualUpToPhase(linalg.Identity(4), 1e-12) {
		return false
	}
	out.Append(gate.Gate{Kind: gate.Fused2Q, Qubits: append([]int(nil), b.qubits...), Matrix: b.mat})
	return true
}
