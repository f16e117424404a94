package circuit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/linalg"
)

// randomCircuit builds a pseudo-random circuit mixing 1q and 2q gates,
// used to property-test transpiler passes for semantic equivalence.
func randomCircuit(n, gates int, seed uint64) *Circuit {
	rng := core.NewRNG(seed)
	c := New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.T(rng.Intn(n))
		case 3:
			c.RX(rng.Float64()*4-2, rng.Intn(n))
		case 4:
			c.RZ(rng.Float64()*4-2, rng.Intn(n))
		case 5, 6:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CX(a, b)
		case 7:
			a := rng.Intn(n)
			b := rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.RZZ(rng.Float64()*2, a, b)
		}
	}
	return c
}

func assertEquivalent(t *testing.T, a, b *Circuit, msg string) {
	t.Helper()
	if !a.Unitary().EqualUpToPhase(b.Unitary(), 1e-9) {
		t.Fatalf("%s: circuits not equivalent", msg)
	}
}

func TestFuse1QChain(t *testing.T) {
	c := New(1).H(0).T(0).S(0).X(0)
	f := Fuse(c, 1)
	if f.GateCount() != 1 {
		t.Fatalf("fused to %d gates, want 1", f.GateCount())
	}
	if f.Gates[0].Kind != gate.Fused1Q {
		t.Fatalf("kind %v", f.Gates[0].Kind)
	}
	assertEquivalent(t, c, f, "1q chain")
}

func TestFuse1QChainsAcrossQubits(t *testing.T) {
	c := New(2).H(0).H(1).T(0).S(1)
	f := Fuse(c, 1)
	if f.GateCount() != 2 {
		t.Fatalf("fused to %d gates, want 2", f.GateCount())
	}
	assertEquivalent(t, c, f, "parallel 1q chains")
}

func TestFuse1QBrokenByTwoQubitGate(t *testing.T) {
	c := New(2).H(0).CX(0, 1).H(0)
	f := Fuse(c, 1)
	// H / CX / H cannot merge at width 1.
	if f.GateCount() != 3 {
		t.Fatalf("count %d, want 3", f.GateCount())
	}
	assertEquivalent(t, c, f, "width-1 with CX")
}

func TestFuse2QStaircaseCore(t *testing.T) {
	// CX RZ CX on the same pair collapses into one fused 2q gate.
	c := New(2).CX(0, 1).RZ(0.5, 1).CX(0, 1)
	f := Fuse(c, 2)
	if f.GateCount() != 1 {
		t.Fatalf("count %d, want 1", f.GateCount())
	}
	if f.Gates[0].Kind != gate.Fused2Q {
		t.Fatalf("kind %v", f.Gates[0].Kind)
	}
	assertEquivalent(t, c, f, "CX RZ CX")
}

func TestFuse2QReversedOrder(t *testing.T) {
	// Gates on (0,1) and (1,0) share support and must still fuse correctly.
	c := New(2).CX(0, 1).CX(1, 0).CX(0, 1) // = SWAP
	f := Fuse(c, 2)
	if f.GateCount() != 1 {
		t.Fatalf("count %d, want 1", f.GateCount())
	}
	sw := New(2).SWAP(0, 1)
	assertEquivalent(t, sw, f, "CX sandwich = SWAP")
}

func TestFuseAbsorbs1QInto2Q(t *testing.T) {
	c := New(2).H(0).H(1).CX(0, 1).RZ(1.0, 1).CX(0, 1).H(0).H(1)
	f := Fuse(c, 2)
	if f.GateCount() != 1 {
		t.Fatalf("count %d, want 1", f.GateCount())
	}
	assertEquivalent(t, c, f, "1q absorbed into 2q block")
}

func TestFuseConflictingPairsFlush(t *testing.T) {
	c := New(3).CX(0, 1).CX(1, 2)
	f := Fuse(c, 2)
	if f.GateCount() != 2 {
		t.Fatalf("count %d, want 2 (overlapping pairs cannot merge)", f.GateCount())
	}
	assertEquivalent(t, c, f, "overlapping pairs")
}

func TestFuseBarrierBlocksFusion(t *testing.T) {
	c := New(1).H(0).Barrier().H(0)
	f := Fuse(c, 2)
	// H H would cancel to identity blocks, but the barrier splits them;
	// each side fuses alone to a single H-equivalent block.
	if f.GateCount() != 2 {
		t.Fatalf("count %d, want 2", f.GateCount())
	}
}

func TestFuseDropsIdentityBlocks(t *testing.T) {
	c := New(1).H(0).H(0)
	f := Fuse(c, 2)
	if f.GateCount() != 0 {
		t.Fatalf("H·H should fuse to identity and vanish, got %d gates", f.GateCount())
	}
}

func TestFuseRandomEquivalenceWidth2(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		c := randomCircuit(4, 30, seed)
		f := Fuse(c, 2)
		assertEquivalent(t, c, f, "random width-2")
		if f.GateCount() > c.GateCount() {
			t.Errorf("seed %d: fusion increased gate count %d → %d", seed, c.GateCount(), f.GateCount())
		}
	}
}

func TestFuseRandomEquivalenceWidth1(t *testing.T) {
	for seed := uint64(20); seed <= 28; seed++ {
		c := randomCircuit(4, 30, seed)
		assertEquivalent(t, c, Fuse(c, 1), "random width-1")
	}
}

func TestFusedBlocksAreUnitary(t *testing.T) {
	f := Fuse(randomCircuit(4, 40, 99), 2)
	for _, g := range f.Gates {
		switch g.Kind {
		case gate.Fused1Q:
			if !g.Matrix.IsUnitary(1e-10) {
				t.Error("fused 1q block not unitary")
			}
		case gate.Fused2Q:
			if !g.Matrix.IsUnitary(1e-10) {
				t.Error("fused 2q block not unitary")
			}
		}
	}
}

func TestCancelInversesSimplePairs(t *testing.T) {
	c := New(2).X(0).X(0).H(1).H(1).CX(0, 1).CX(0, 1)
	out := CancelInverses(c)
	if out.GateCount() != 0 {
		t.Fatalf("count %d, want 0: %v", out.GateCount(), out.Gates)
	}
}

func TestCancelInversesNested(t *testing.T) {
	// H X X H → cancels from the inside out via fixpoint iteration.
	c := New(1).H(0).X(0).X(0).H(0)
	out := CancelInverses(c)
	if out.GateCount() != 0 {
		t.Fatalf("count %d, want 0", out.GateCount())
	}
}

func TestCancelInversesRotations(t *testing.T) {
	c := New(1).RZ(0.7, 0).RZ(-0.7, 0)
	if out := CancelInverses(c); out.GateCount() != 0 {
		t.Fatalf("RZ pair not cancelled: %d", out.GateCount())
	}
	c2 := New(1).S(0).Sdg(0)
	if out := CancelInverses(c2); out.GateCount() != 0 {
		t.Fatal("S·Sdg not cancelled")
	}
}

func TestCancelInversesBlockedByInterveningGate(t *testing.T) {
	c := New(2).X(0).CX(0, 1).X(0)
	out := CancelInverses(c)
	if out.GateCount() != 3 {
		t.Fatalf("count %d, want 3 (CX blocks cancellation)", out.GateCount())
	}
}

func TestCancelInversesBlockedByBarrier(t *testing.T) {
	c := New(1).X(0).Barrier().X(0)
	out := CancelInverses(c)
	if out.GateCount() != 2 {
		t.Fatalf("count %d, want 2 (barrier blocks)", out.GateCount())
	}
}

func TestCancelInversesPreservesSemantics(t *testing.T) {
	for seed := uint64(40); seed <= 48; seed++ {
		c := randomCircuit(4, 24, seed)
		assertEquivalent(t, c, CancelInverses(c), "cancel inverses")
	}
}

func TestCancelReversedCX(t *testing.T) {
	// CX(0,1) followed by CX(1,0) does NOT cancel.
	c := New(2).CX(0, 1).CX(1, 0)
	if out := CancelInverses(c); out.GateCount() != 2 {
		t.Fatal("CX(0,1)·CX(1,0) wrongly cancelled")
	}
	// RZZ is symmetric: RZZ(θ;0,1) then RZZ(−θ;1,0) DOES cancel.
	c2 := New(2).RZZ(0.5, 0, 1).RZZ(-0.5, 1, 0)
	if out := CancelInverses(c2); out.GateCount() != 0 {
		t.Fatal("symmetric RZZ pair not cancelled")
	}
}

func TestDropIdentities(t *testing.T) {
	c := New(2).I(0).RX(0, 0).RZ(1e-16, 1).X(1).RY(0.5, 0)
	out := DropIdentities(c)
	if out.GateCount() != 2 {
		t.Fatalf("count %d, want 2", out.GateCount())
	}
}

func TestTranspilePipeline(t *testing.T) {
	for seed := uint64(60); seed <= 66; seed++ {
		c := randomCircuit(4, 30, seed)
		out := Transpile(c)
		assertEquivalent(t, c, out, "full pipeline")
	}
}

func TestPermuteQubits4(t *testing.T) {
	// Permuting CX(hi,lo) gives CX(lo,hi).
	cxAB := gate.New(gate.CX, 0, 1).Matrix4()
	cxBA := permuteQubits4(cxAB)
	want := linalg.MatrixFrom(4, 4, []complex128{
		1, 0, 0, 0,
		0, 0, 0, 1,
		0, 0, 1, 0,
		0, 1, 0, 0,
	})
	if !cxBA.Equal(want, 1e-12) {
		t.Errorf("permuted CX wrong:\n%v", cxBA)
	}
}

func TestFusionReductionOnStructuredCircuit(t *testing.T) {
	// A Pauli-exponential-like structure (basis change + CX staircase +
	// RZ + unwind) must fuse to well under the original count — the
	// mechanism behind the paper's Figure 4.
	c := New(4)
	for _, q := range []int{0, 1, 2, 3} {
		c.H(q)
	}
	c.CX(0, 1).CX(1, 2).CX(2, 3).RZ(0.3, 3).CX(2, 3).CX(1, 2).CX(0, 1)
	for _, q := range []int{0, 1, 2, 3} {
		c.H(q)
	}
	f := Fuse(c, 2)
	if f.GateCount() >= c.GateCount() {
		t.Fatalf("no reduction: %d → %d", c.GateCount(), f.GateCount())
	}
	assertEquivalent(t, c, f, "pauli exponential fusion")
}

// heaCircuit is the hardware-efficient ansatz's shape (internal/ansatz):
// per layer RY·RZ on every qubit then a CX ladder, and a final RY·RZ
// layer, angles drawn from the seed.
func heaCircuit(n, layers int, seed uint64) *Circuit {
	rng := core.NewRNG(seed)
	c := New(n)
	rot := func() {
		for q := 0; q < n; q++ {
			c.RY(rng.Float64()*6-3, q)
			c.RZ(rng.Float64()*6-3, q)
		}
	}
	for l := 0; l < layers; l++ {
		rot()
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	rot()
	return c
}

// TestFuseAbsorbsTrailingSingleQubitGates: 1q gates on a wire whose
// block is closed fold into the last 2q block emitted on that wire, so
// the hardware-efficient ansatz fuses to one block per CX of its ladders
// — every rotation layer, the final one included, inside them — and
// stays the same unitary. A barrier, a marker or a later 2q block on the
// wire stops the fold into the older block.
func TestFuseAbsorbsTrailingSingleQubitGates(t *testing.T) {
	for _, n := range []int{4, 5, 6, 8, 12, 16, 20} {
		for layers := 1; layers <= 3; layers++ {
			c := heaCircuit(n, layers, uint64(10*n+layers))
			f := Fuse(c, 2)
			if got, want := f.GateCount(), layers*(n-1); got != want {
				t.Errorf("n=%d layers=%d: GatesAfter %d, want %d", n, layers, got, want)
			}
			for _, g := range f.Gates {
				if g.Kind != gate.Fused2Q {
					t.Fatalf("n=%d layers=%d: emitted a %v, want only 2q blocks", n, layers, g.Kind)
				}
			}
			if n <= 8 && !c.Unitary().Equal(f.Unitary(), 1e-12) {
				t.Errorf("n=%d layers=%d: fused circuit is not the source unitary", n, layers)
			}
		}
	}

	ladder := func() *Circuit { return New(3).CX(0, 1).CX(1, 2) }
	folds := map[string]*Circuit{
		"at the end":         ladder().RY(0.3, 0).RZ(0.2, 0),
		"before a barrier":   ladder().RY(0.3, 0).Barrier(),
		"before its measure": ladder().RY(0.3, 0).Append(gate.New(gate.Measure, 0)),
	}
	for name, c := range folds {
		if f := Fuse(c, 2); f.GateCount() != 2 {
			t.Errorf("trailing RY on a closed wire, %s: %d gates, want 2", name, f.GateCount())
		}
	}
	stops := map[string]*Circuit{
		"barrier": ladder().Barrier().RY(0.3, 0),
		"marker":  ladder().Append(gate.New(gate.Measure, 0)).RY(0.3, 0),
	}
	for name, c := range stops {
		f := Fuse(c, 2)
		if f.GateCount() != 3 {
			t.Errorf("%s: %d gates, want 3 (the RY stays on its own)", name, f.GateCount())
		}
		if last := f.Gates[len(f.Gates)-1]; last.Kind != gate.Fused1Q {
			t.Errorf("%s: last gate %v, want the RY as a 1q block", name, last.Kind)
		}
	}

	// CX(0,2) is a later 2q block on wire 0: the RY folds into it, and
	// the first block, (0,1), is left as it was.
	base := New(3).CX(0, 1).CX(1, 2).CX(0, 2).CX(1, 2)
	with := base.Clone().RY(0.3, 0)
	fb, fw := Fuse(base, 2), Fuse(with, 2)
	if fb.GateCount() != 4 || fw.GateCount() != 4 {
		t.Fatalf("2q blocks on the wire: %d and %d gates, want 4 and 4", fb.GateCount(), fw.GateCount())
	}
	if !fw.Gates[0].Matrix.Equal(fb.Gates[0].Matrix, 1e-15) {
		t.Error("the RY folded into the (0,1) block past the later (0,2) block")
	}
	if fw.Gates[2].Matrix.Equal(fb.Gates[2].Matrix, 1e-12) {
		t.Error("the RY did not fold into the (0,2) block")
	}
	if !with.Unitary().Equal(fw.Unitary(), 1e-12) {
		t.Error("fold past later blocks changed the unitary")
	}
}
