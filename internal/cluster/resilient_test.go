package cluster

import (
	"context"
	"errors"
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/state"
)

// globalHeavy builds a circuit dominated by global-qubit gates, so every
// run exercises the pairwise exchange (and thus the fault) path.
func globalHeavy(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(n-1).H(n-2).CX(n-2, n-1).RZ(0.3, n-1)
	c.CX(0, n-1).H(n-2).RZZ(0.7, n-2, n-1)
	return c
}

// TestStatsRaceWithGlobalGate exercises Stats() concurrently with gate
// application; under -race this fails if any counter mutation is
// unguarded (the bug was gate-census increments outside statsMu).
func TestStatsRaceWithGlobalGate(t *testing.T) {
	cl, err := New(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = cl.Stats()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		cl.Run(globalHeavy(6))
	}
	close(done)
	wg.Wait()
	if cl.Stats().GlobalGates == 0 {
		t.Error("no global gates recorded")
	}
}

// TestVerifiedCommMatchesPlain: the checksummed buffered exchange must
// be numerically identical to the in-place path when nothing faults.
func TestVerifiedCommMatchesPlain(t *testing.T) {
	c := randomCircuit(6, 30, 11)
	plain, _ := New(6, 4)
	plain.Run(c)
	verified, err := NewWithOptions(6, 4, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	verified.Run(c)
	got, want := verified.Gather(), plain.Gather()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("amp %d: verified %v != plain %v", i, got[i], want[i])
		}
	}
}

// TestFaultDrillRecovers: a seeded injector drops, corrupts, and stalls
// transfers; retry + checksum must still produce the exact fault-free
// state, with the injector census showing real faults were exercised.
func TestFaultDrillRecovers(t *testing.T) {
	c := randomCircuit(6, 40, 3)
	ref := state.New(6, state.Options{})
	ref.Run(c)
	for _, ranks := range []int{2, 4} {
		inj := resilience.NewFaultInjector(resilience.FaultConfig{
			Seed:        42,
			DropProb:    0.15,
			CorruptProb: 0.15,
			StallProb:   0.1,
			StallDelay:  10 * time.Microsecond,
		})
		cl, err := NewWithOptions(6, ranks, Options{
			Fault: inj,
			Retry: resilience.RetryPolicy{MaxAttempts: 12, BaseDelay: 10 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(c)
		if inj.Injected() == 0 {
			t.Fatalf("ranks=%d: no faults injected", ranks)
		}
		got := cl.Gather()
		for i, w := range ref.Amplitudes() {
			if !core.AlmostEqualC(got[i], w, 1e-12) {
				t.Fatalf("ranks=%d amp %d: %v != %v after fault recovery", ranks, i, got[i], w)
			}
		}
	}
}

// TestFaultDrillDeterministic: same seed → same injected-fault census
// (run serially via 2 ranks, where each global gate has one pair).
func TestFaultDrillDeterministic(t *testing.T) {
	run := func() map[resilience.FaultKind]int {
		inj := resilience.NewFaultInjector(resilience.FaultConfig{
			Seed:     7,
			DropProb: 0.2, CorruptProb: 0.2,
		})
		cl, err := NewWithOptions(6, 2, Options{
			Fault: inj,
			Retry: resilience.RetryPolicy{MaxAttempts: 12, BaseDelay: time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(globalHeavy(6))
		return inj.InjectedByKind()
	}
	a, b := run(), run()
	if !maps.Equal(a, b) {
		t.Errorf("fault census not deterministic: %v vs %v", a, b)
	}
	if a[resilience.FaultDrop]+a[resilience.FaultCorrupt] == 0 {
		t.Error("drill injected nothing")
	}
}

// TestWatchdogRecoversSilentCorruption: a silent fault passes the
// transfer checksum but breaks ‖ψ‖=1; the norm watchdog must roll back
// and replay to the exact clean result.
func TestWatchdogRecoversSilentCorruption(t *testing.T) {
	c := randomCircuit(6, 30, 5)
	ref := state.New(6, state.Options{})
	ref.Run(c)
	inj := resilience.NewFaultInjector(resilience.FaultConfig{
		Seed:       9,
		SilentProb: 0.3,
		MaxFaults:  2, // faults exhaust, so replay eventually runs clean
	})
	cl, err := NewWithOptions(6, 4, Options{
		Fault:          inj,
		NormCheckEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RunContext(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if inj.InjectedByKind()[resilience.FaultSilent] == 0 {
		t.Fatal("no silent fault injected; test exercised nothing")
	}
	if math.Abs(cl.Norm()-1) > 1e-9 {
		t.Fatalf("norm %v after recovery", cl.Norm())
	}
	got := cl.Gather()
	for i, w := range ref.Amplitudes() {
		if !core.AlmostEqualC(got[i], w, 1e-12) {
			t.Fatalf("amp %d: %v != %v after watchdog recovery", i, got[i], w)
		}
	}
}

// TestTransferExhaustionSurfaces: a link that drops every attempt must
// surface ErrRetriesExhausted (wrapping ErrDropped) instead of hanging
// or silently proceeding.
func TestTransferExhaustionSurfaces(t *testing.T) {
	inj := resilience.NewFaultInjector(resilience.FaultConfig{Seed: 1, DropProb: 1})
	cl, err := NewWithOptions(6, 4, Options{
		Fault: inj,
		Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := cl.RunContext(context.Background(), circuit.New(6).H(5))
	if !errors.Is(runErr, resilience.ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", runErr)
	}
	if !errors.Is(runErr, resilience.ErrDropped) {
		t.Fatalf("exhaustion should carry the last cause, got %v", runErr)
	}
}

// TestRunContextCancellation: a canceled context aborts the run with
// context.Canceled before more gates are applied.
func TestRunContextCancellation(t *testing.T) {
	cl, err := New(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.RunContext(ctx, globalHeavy(6)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cl.Stats().GlobalGates != 0 {
		t.Error("gates applied after cancellation")
	}
}

// TestWatchdogPersistentDriftErrors: if corruption outpaces MaxFaults
// (unbounded silent faults on every transfer), the bounded replay gives
// up with ErrCorrupted rather than looping forever.
func TestWatchdogPersistentDriftErrors(t *testing.T) {
	inj := resilience.NewFaultInjector(resilience.FaultConfig{Seed: 3, SilentProb: 1})
	cl, err := NewWithOptions(6, 2, Options{Fault: inj, NormCheckEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	runErr := cl.RunContext(context.Background(), globalHeavy(6))
	if !errors.Is(runErr, resilience.ErrCorrupted) {
		t.Fatalf("want ErrCorrupted after bounded replays, got %v", runErr)
	}
}
