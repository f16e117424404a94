package cluster

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/state"
)

func randomCircuit(n, gates int, seed uint64) *circuit.Circuit {
	rng := core.NewRNG(seed)
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.RY(rng.Float64()*3-1.5, rng.Intn(n))
		case 3:
			c.RZ(rng.Float64()*3-1.5, rng.Intn(n))
		case 4:
			c.T(rng.Intn(n))
		case 5, 6:
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CX(a, b)
		case 7:
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.RZZ(rng.Float64(), a, b)
		}
	}
	return c
}

// mustRun applies c to cl and fails the test on an error.
func mustRun(t *testing.T, cl *Cluster, c *circuit.Circuit) {
	t.Helper()
	if err := cl.RunContext(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

// compare runs the circuit on the cluster and on the single-node engine.
func compare(t *testing.T, n, ranks int, c *circuit.Circuit) *Cluster {
	t.Helper()
	cl, err := New(n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, cl, c)
	ref := state.New(n, state.Options{})
	ref.Run(c)
	got := cl.Gather()
	want := ref.Amplitudes()
	for i := range want {
		if !core.AlmostEqualC(got[i], want[i], 1e-9) {
			t.Fatalf("ranks=%d amp %d: cluster %v vs single %v", ranks, i, got[i], want[i])
		}
	}
	return cl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 1); err == nil {
		t.Error("1 qubit accepted")
	}
	if _, err := New(6, 3); err == nil {
		t.Error("non-power-of-two ranks accepted")
	}
	if _, err := New(4, 8); err == nil {
		t.Error("too many ranks accepted")
	}
	cl, err := New(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumRanks() != 4 || cl.NumQubits() != 6 {
		t.Error("shape wrong")
	}
}

func TestInitialState(t *testing.T) {
	cl, _ := New(5, 2)
	amps := cl.Gather()
	if amps[0] != 1 {
		t.Error("not |0…0⟩")
	}
	if math.Abs(cl.Norm()-1) > 1e-12 {
		t.Error("norm")
	}
}

func TestLocalGateMatchesSingleNode(t *testing.T) {
	c := circuit.New(6).H(0).CX(0, 1).RZ(0.5, 2).CX(2, 3)
	cl := compare(t, 6, 4, c)
	// All qubits < localN(=4): zero communication.
	if cl.Stats().Messages != 0 {
		t.Errorf("local circuit caused %d messages", cl.Stats().Messages)
	}
}

func TestGlobalSingleQubitGate(t *testing.T) {
	c := circuit.New(6).H(5).X(4)
	cl := compare(t, 6, 4, c)
	st := cl.Stats()
	if st.GlobalGates != 2 || st.Messages == 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestGlobalTwoQubitGate(t *testing.T) {
	c := circuit.New(6).H(0).CX(0, 5)
	cl := compare(t, 6, 4, c)
	if cl.Stats().QubitSwaps == 0 {
		t.Error("expected qubit remapping for global CX")
	}
}

func TestGlobalGlobalTwoQubitGate(t *testing.T) {
	c := circuit.New(6).H(4).CX(4, 5).RZZ(0.7, 5, 4)
	compare(t, 6, 4, c)
}

func TestRandomCircuitsAllRankCounts(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 4; seed++ {
			c := randomCircuit(6, 25, seed*uint64(ranks)+seed)
			compare(t, 6, ranks, c)
		}
	}
}

func TestNormPreserved(t *testing.T) {
	cl, _ := New(6, 4)
	mustRun(t, cl, randomCircuit(6, 40, 99))
	if math.Abs(cl.Norm()-1) > 1e-9 {
		t.Errorf("norm %v", cl.Norm())
	}
}

func TestGHZAcrossRanks(t *testing.T) {
	// Entangle across the rank boundary and verify the distribution.
	n := 6
	c := circuit.New(n).H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	cl := compare(t, n, 4, c)
	amps := cl.Gather()
	if !core.AlmostEqualC(amps[0]*amps[0]+amps[len(amps)-1]*amps[len(amps)-1], 1, 1e-9) {
		t.Error("GHZ amplitudes wrong")
	}
}

func TestToState(t *testing.T) {
	cl, _ := New(4, 2)
	mustRun(t, cl, circuit.New(4).H(0).CX(0, 3))
	s, err := cl.ToState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(3)-0.5) > 1e-9 {
		t.Error("gathered state wrong")
	}
}

// TestSimulateClampsRanks: Simulate halves a rank count that would leave
// a rank fewer than two local qubits instead of failing, so a Bell pair
// runs on four (or zero) requested ranks, and it agrees with the
// single-node engine to the bit.
func TestSimulateClampsRanks(t *testing.T) {
	for _, tc := range []struct {
		circ  *circuit.Circuit
		ranks int
	}{
		{circuit.New(2).H(0).CX(0, 1), 4},
		{circuit.New(2).H(0).CX(0, 1), 0},
		{circuit.New(5).H(0).CX(0, 4).RY(0.3, 2).CX(2, 3), 16},
	} {
		s, err := Simulate(context.Background(), tc.circ, tc.ranks, Options{})
		if err != nil {
			t.Fatalf("%d qubits on %d ranks: %v", tc.circ.NumQubits, tc.ranks, err)
		}
		ref := state.New(tc.circ.NumQubits, state.Options{Workers: 1})
		ref.Run(tc.circ)
		for i, a := range ref.Amplitudes() {
			if s.Amplitudes()[i] != a {
				t.Fatalf("%d qubits on %d ranks: amplitude %d = %v, single node %v",
					tc.circ.NumQubits, tc.ranks, i, s.Amplitudes()[i], a)
			}
		}
	}
}

func TestCommunicationScalesWithRanks(t *testing.T) {
	// The same circuit on more ranks must move at least as many messages.
	c := circuit.New(8).H(7).H(6).CX(6, 7).H(5)
	var prev int
	for _, ranks := range []int{2, 4, 8} {
		cl, err := New(8, ranks)
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, cl, c)
		msgs := cl.Stats().Messages
		if msgs < prev {
			t.Errorf("messages decreased with more ranks: %d → %d", prev, msgs)
		}
		prev = msgs
	}
}

func TestRejectsMeasurement(t *testing.T) {
	cl, _ := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Error("measurement accepted")
		}
	}()
	mustRun(t, cl, circuit.New(4).Measure(0))
}

func TestBarrierIsNoop(t *testing.T) {
	cl, _ := New(4, 2)
	mustRun(t, cl, circuit.New(4).Barrier())
	if cl.Stats().LocalGates != 0 {
		t.Error("barrier counted as gate")
	}
}

func TestFusedGatesOnCluster(t *testing.T) {
	// Transpiled (fused) circuits must run identically on the cluster.
	c := randomCircuit(6, 30, 7)
	f := circuit.Transpile(c)
	cl, _ := New(6, 4)
	mustRun(t, cl, f)
	ref := state.New(6, state.Options{})
	ref.Run(c)
	got := cl.Gather()
	for i, w := range ref.Amplitudes() {
		if !core.AlmostEqualC(got[i], w, 1e-9) {
			t.Fatalf("fused cluster run diverges at %d", i)
		}
	}
}
