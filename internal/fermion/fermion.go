// Package fermion implements second-quantized fermionic operators —
// products of creation/annihilation operators with anticommutation-aware
// normal ordering — and the Jordan–Wigner transform onto Pauli-sum qubit
// operators. It is the bridge between the chemistry layer (molecular
// integrals, downfolding) and the circuit layer (ansatz generation,
// measurement).
package fermion

import (
	"fmt"
	"math/cmplx"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pauli"
	"repro/internal/telemetry"
)

// Ladder is a single creation (Dagger=true) or annihilation operator on a
// spin-orbital mode.
type Ladder struct {
	Mode   int
	Dagger bool
}

// String renders "3^" for a_3† and "3" for a_3.
func (l Ladder) String() string {
	if l.Dagger {
		return fmt.Sprintf("%d^", l.Mode)
	}
	return fmt.Sprintf("%d", l.Mode)
}

// Term is a coefficient times an ordered product of ladder operators.
type Term struct {
	Coeff complex128
	Ops   []Ladder
}

// maxMode is the highest mode a term key can hold: one byte per ladder.
const maxMode = 127

// ladderRank numbers the ladders, indexed mode<<1 | dagger, in the order
// of their texts ("3^ " for a_3†, "3 " for a_3). No ladder's text is a
// prefix of another's, so products keyed by these ranks sort as their
// texts ("3^ 0 ") do: Terms' canonical order.
var ladderRank = func() (rank [2 * (maxMode + 1)]byte) {
	texts := make([]string, len(rank))
	order := make([]int, len(rank))
	for l := range texts {
		texts[l] = Ladder{Mode: l >> 1, Dagger: l&1 == 1}.String() + " "
		order[l] = l
	}
	sort.Slice(order, func(i, j int) bool { return texts[order[i]] < texts[order[j]] })
	for r, l := range order {
		rank[l] = byte(r)
	}
	return rank
}()

// appendKey appends the map key of a ladder product: each ladder's
// ladderRank, one byte each. Keys are equal exactly when the products
// are, and sort as their texts.
func appendKey(b []byte, ops []Ladder) []byte {
	for _, l := range ops {
		if l.Mode < 0 || l.Mode > maxMode {
			panic(fmt.Errorf("%w: fermion: mode %d outside 0..%d", core.ErrInvalidArgument, l.Mode, maxMode))
		}
		i := l.Mode << 1
		if l.Dagger {
			i |= 1
		}
		b = append(b, ladderRank[i])
	}
	return b
}

// String renders e.g. "(0.5+0i)·[2^ 0]".
func (t Term) String() string {
	parts := make([]string, len(t.Ops))
	for i, l := range t.Ops {
		parts[i] = l.String()
	}
	return fmt.Sprintf("%v·[%s]", t.Coeff, strings.Join(parts, " "))
}

// Op is a sum of ladder-product terms. The zero value is the zero
// operator.
type Op struct {
	terms map[string]Term // by appendKey of the product
}

// NewOp returns an empty fermionic operator.
func NewOp() *Op { return &Op{terms: map[string]Term{}} }

// Scalar returns c·1.
func Scalar(c complex128) *Op {
	op := NewOp()
	op.AddTerm(Term{Coeff: c})
	return op
}

// OneBody returns a_p† a_q.
func OneBody(p, q int) *Op {
	op := NewOp()
	op.AddTerm(Term{Coeff: 1, Ops: []Ladder{{p, true}, {q, false}}})
	return op
}

// TwoBody returns a_p† a_q† a_r a_s.
func TwoBody(p, q, r, s int) *Op {
	op := NewOp()
	op.AddTerm(Term{Coeff: 1, Ops: []Ladder{{p, true}, {q, true}, {r, false}, {s, false}}})
	return op
}

// Number returns the number operator n_p = a_p† a_p.
func Number(p int) *Op { return OneBody(p, p) }

// AddTerm accumulates a term (merging with an existing identical product).
func (op *Op) AddTerm(t Term) *Op {
	if op.terms == nil {
		op.terms = map[string]Term{}
	}
	if cmplx.Abs(t.Coeff) <= core.CoeffEps {
		return op
	}
	var buf [8]byte
	k := appendKey(buf[:0], t.Ops)
	if ex, ok := op.terms[string(k)]; ok {
		c := ex.Coeff + t.Coeff
		if cmplx.Abs(c) <= core.CoeffEps {
			delete(op.terms, string(k))
		} else {
			ex.Coeff = c
			op.terms[string(k)] = ex
		}
	} else {
		cp := Term{Coeff: t.Coeff, Ops: append([]Ladder(nil), t.Ops...)}
		op.terms[string(k)] = cp
	}
	return op
}

// Add accumulates c·o into op and returns op.
func (op *Op) Add(o *Op, c complex128) *Op {
	for _, t := range o.terms {
		op.AddTerm(Term{Coeff: c * t.Coeff, Ops: t.Ops})
	}
	return op
}

// Scale multiplies all coefficients in place.
func (op *Op) Scale(c complex128) *Op {
	if c == 0 {
		op.terms = map[string]Term{}
		return op
	}
	for k, t := range op.terms {
		t.Coeff *= c
		op.terms[k] = t
	}
	return op
}

// Mul returns the operator product op·o (ladder products concatenate).
// Iterates in canonical term order: concatenated products can normalize
// to the same key, and their summation order must not depend on map
// iteration (run-to-run bit stability).
func (op *Op) Mul(o *Op) *Op {
	out := NewOp()
	for _, t1 := range op.Terms() {
		for _, t2 := range o.Terms() {
			ops := make([]Ladder, 0, len(t1.Ops)+len(t2.Ops))
			ops = append(ops, t1.Ops...)
			ops = append(ops, t2.Ops...)
			out.AddTerm(Term{Coeff: t1.Coeff * t2.Coeff, Ops: ops})
		}
	}
	return out
}

// Commutator returns [op, o].
func (op *Op) Commutator(o *Op) *Op {
	out := op.Mul(o)
	out.Add(o.Mul(op), -1)
	return out
}

// Adjoint returns op†: coefficients conjugated, products reversed with
// dagger flags flipped.
func (op *Op) Adjoint() *Op {
	out := NewOp()
	for _, t := range op.terms {
		ops := make([]Ladder, len(t.Ops))
		for i, l := range t.Ops {
			ops[len(t.Ops)-1-i] = Ladder{Mode: l.Mode, Dagger: !l.Dagger}
		}
		out.AddTerm(Term{Coeff: cmplx.Conj(t.Coeff), Ops: ops})
	}
	return out
}

// NumTerms returns the stored term count.
func (op *Op) NumTerms() int { return len(op.terms) }

// Terms returns the term list in deterministic order: by key, which is
// the order of the products' texts (see ladderRank).
func (op *Op) Terms() []Term {
	out := make([]Term, 0, len(op.terms))
	keys := make([]string, 0, len(op.terms))
	for k := range op.terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, op.terms[k])
	}
	return out
}

// Clone deep-copies the operator.
func (op *Op) Clone() *Op {
	out := NewOp()
	for _, t := range op.terms {
		out.AddTerm(t)
	}
	return out
}

// MaxMode returns the highest mode index used, or -1.
func (op *Op) MaxMode() int {
	mx := -1
	for _, t := range op.terms {
		for _, l := range t.Ops {
			if l.Mode > mx {
				mx = l.Mode
			}
		}
	}
	return mx
}

// String renders the operator.
func (op *Op) String() string {
	ts := op.Terms()
	if len(ts) == 0 {
		return "0"
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// NormalOrder rewrites the operator with all creation operators to the
// left (descending mode) and annihilation operators to the right
// (ascending mode), applying a_p a_q† = δ_pq − a_q† a_p and
// anticommutation signs. Products with repeated creations (or repeated
// annihilations) of the same mode vanish.
func (op *Op) NormalOrder() *Op {
	out := NewOp()
	queue := op.Terms()
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		idx := firstDisorder(t.Ops)
		if idx < 0 {
			if !vanishes(t.Ops) {
				out.AddTerm(t)
			}
			continue
		}
		a, b := t.Ops[idx], t.Ops[idx+1]
		switch {
		case !a.Dagger && b.Dagger:
			// a_p a_q† = δ_pq − a_q† a_p
			swapped := swapAt(t.Ops, idx)
			queue = append(queue, Term{Coeff: -t.Coeff, Ops: swapped})
			if a.Mode == b.Mode {
				contracted := append(append([]Ladder(nil), t.Ops[:idx]...), t.Ops[idx+2:]...)
				queue = append(queue, Term{Coeff: t.Coeff, Ops: contracted})
			}
		default:
			// Same species out of order: plain anticommutation swap.
			if a.Mode == b.Mode {
				// a_p a_p = 0 and a_p† a_p† = 0.
				continue
			}
			swapped := swapAt(t.Ops, idx)
			queue = append(queue, Term{Coeff: -t.Coeff, Ops: swapped})
		}
	}
	return out
}

// firstDisorder returns the first index where the canonical order is
// violated, or -1 if the product is normal-ordered.
func firstDisorder(ops []Ladder) int {
	for i := 0; i+1 < len(ops); i++ {
		a, b := ops[i], ops[i+1]
		if !a.Dagger && b.Dagger {
			return i
		}
		if a.Dagger && b.Dagger && a.Mode < b.Mode {
			return i
		}
		if !a.Dagger && !b.Dagger && a.Mode > b.Mode {
			return i
		}
	}
	return -1
}

// vanishes reports whether a normal-ordered product contains a repeated
// mode within a species (which squares a fermionic operator to zero).
func vanishes(ops []Ladder) bool {
	for i := 0; i+1 < len(ops); i++ {
		if ops[i] == ops[i+1] {
			return true
		}
	}
	return false
}

func swapAt(ops []Ladder, i int) []Ladder {
	out := append([]Ladder(nil), ops...)
	out[i], out[i+1] = out[i+1], out[i]
	return out
}

// JordanWigner maps the fermionic operator onto qubits:
//
//	a_p† = Z₀…Z_{p−1} · (X_p − iY_p)/2
//	a_p  = Z₀…Z_{p−1} · (X_p + iY_p)/2
//
// Mode p maps to qubit p. A product of k ladder operators is at most 2^k
// Pauli strings. Each term is expanded one ladder at a time in a small
// buffer by pauli.String.Mul, with the CoeffEps deletion of multiplying
// the two-term ladder operators as pauli.Ops, so every coefficient is the
// same to the bit. The expansion is exact and its order immaterial: every
// partial product is a phase times c·X^x·Z^z·∏(I ± Z_q)/2 over the m
// distinct modes it has touched, so its strings all carry |c|/2^m, and two
// products that meet on one string (a repeated mode) are equal or
// opposite. Different ladder products transform onto overlapping strings,
// so the terms are summed in canonical order — map iteration would make
// the low-order bits of the sums vary between otherwise identical
// constructions.
func (op *Op) JordanWigner() *pauli.Op {
	start := telemetry.Now()
	out := pauli.NewOp()
	var acc, next jwTerms
	for _, t := range op.Terms() {
		acc = acc[:0].add(pauli.Identity, t.Coeff)
		for _, l := range t.Ops {
			x, y, cy := ladderJW(l)
			next = next[:0]
			for _, e := range acc {
				r, ph := e.P.Mul(x)
				next = next.add(r, e.Coeff*0.5*ph)
				r, ph = e.P.Mul(y)
				next = next.add(r, e.Coeff*cy*ph)
			}
			acc, next = next, acc
		}
		for _, e := range acc {
			out.Add(e.P, e.Coeff)
		}
	}
	mJordanWigner.Since(start)
	return out
}

// mJordanWigner times every JordanWigner mapping.
var mJordanWigner = telemetry.GetTimer("fermion.jordan_wigner")

// jwTerms holds one term's Pauli strings during the expansion and adds to
// them as pauli.Op.Add does: a new string starts from +0, and a string
// whose sum is at or below core.CoeffEps is dropped.
type jwTerms []pauli.Term

func (b jwTerms) add(p pauli.String, c complex128) jwTerms {
	for i := range b {
		if b[i].P == p {
			v := b[i].Coeff + c
			if cmplx.Abs(v) <= core.CoeffEps {
				b[i] = b[len(b)-1]
				return b[:len(b)-1]
			}
			b[i].Coeff = v
			return b
		}
	}
	if v := 0 + c; cmplx.Abs(v) > core.CoeffEps {
		b = append(b, pauli.Term{Coeff: v, P: p})
	}
	return b
}

// ladderJW returns the strings X_p·Z_{<p} and Y_p·Z_{<p} of one ladder
// operator and the coefficient of the second (the first is ½).
func ladderJW(l Ladder) (x, y pauli.String, cy complex128) {
	zmask := uint64(1)<<uint(l.Mode) - 1
	x = pauli.String{X: 1 << uint(l.Mode), Z: zmask}
	y = pauli.String{X: 1 << uint(l.Mode), Z: zmask | 1<<uint(l.Mode)}
	if l.Dagger {
		return x, y, -0.5i
	}
	return x, y, 0.5i
}
