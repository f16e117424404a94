package vqe

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/state"
)

// scriptedBackend answers from a serial state vector, except that call
// number failAt returns err — or panics with panicWith when that is set.
type scriptedBackend struct {
	calls, failAt int
	err           error
	panicWith     any
}

func (b *scriptedBackend) Expectation(_ context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	b.calls++
	if b.calls == b.failAt {
		if b.panicWith != nil {
			panic(b.panicWith)
		}
		return 0, b.err
	}
	s := state.New(prep.NumQubits, state.Options{Workers: 1})
	s.Run(prep)
	return pauli.Expectation(s, obs, pauli.ExpectationOptions{Workers: 1}), nil
}

// minimizeOn runs one of the two routines on H2 with the given backend.
func minimizeOn(t *testing.T, routine string, b Backend) (*Driver, Result, error) {
	t.Helper()
	h, u, _ := h2Setup(t)
	d, err := New(h, u, Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, u.NumParameters())
	var res Result
	if routine == "lbfgs" {
		res, err = d.MinimizeLBFGS(context.Background(), x0, opt.LBFGSOptions{}, ResilienceOptions{})
	} else {
		res, err = d.Minimize(context.Background(), x0, opt.NelderMeadOptions{MaxIter: 2000}, ResilienceOptions{})
	}
	return d, res, err
}

// TestBackendFailureStopsLoop: a backend that fails its k-th evaluation
// is never asked for a (k+1)-th, and the run's error unwraps to the
// backend's own — the chain the scheduler classifies retries by.
func TestBackendFailureStopsLoop(t *testing.T) {
	sentinel := errors.New("interconnect on fire")
	for _, routine := range []string{"nelder-mead", "lbfgs"} {
		// Inside the initial simplex / first gradient, mid-iteration, and
		// deep into the run.
		for _, k := range []int{1, 3, 9, 30} {
			b := &scriptedBackend{failAt: k, err: fmt.Errorf("rank 2: %w", sentinel)}
			d, _, err := minimizeOn(t, routine, b)
			if !errors.Is(err, sentinel) {
				t.Errorf("%s k=%d: error %v does not unwrap to the backend's", routine, k, err)
			}
			if b.calls != k || d.Stats().EnergyEvaluations != k {
				t.Errorf("%s k=%d: backend called %d times, %d evaluations counted; the loop kept going",
					routine, k, b.calls, d.Stats().EnergyEvaluations)
			}
		}
	}
}

// TestBackendPanicPassesThrough: the loop recovers nothing, so whatever a
// backend panics with reaches the caller's own isolation as that value.
func TestBackendPanicPassesThrough(t *testing.T) {
	type blownFuse struct{ rank int }
	for _, routine := range []string{"nelder-mead", "lbfgs"} {
		func() {
			defer func() {
				if r := recover(); r != (blownFuse{rank: 7}) {
					t.Errorf("%s: recovered %#v, want the backend's own panic value", routine, r)
				}
			}()
			_, _, err := minimizeOn(t, routine, &scriptedBackend{failAt: 5, panicWith: blownFuse{rank: 7}})
			t.Errorf("%s: returned (err=%v) past a panicking backend", routine, err)
		}()
	}
}

// TestBackendDriverSurface: what a driver with a Backend accepts and how
// it answers a single evaluation.
func TestBackendDriverSurface(t *testing.T) {
	h, u, fci := h2Setup(t)
	if _, err := New(h, u, Options{Mode: Rotated, Backend: &scriptedBackend{}}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Errorf("rotated mode with a backend: %v, want ErrInvalidArgument", err)
	}
	b := &scriptedBackend{}
	_, res, err := minimizeOn(t, "lbfgs", b)
	if err != nil || res.Energy-fci > 1e-6 || res.Stats.EnergyEvaluations != b.calls || res.Stats.AnsatzExecutions != 0 {
		t.Errorf("lbfgs on a backend: E=%v (FCI %v) err=%v stats=%+v calls=%d", res.Energy, fci, err, res.Stats, b.calls)
	}

	sentinel := errors.New("no such rank")
	d, _ := New(h, u, Options{Backend: &scriptedBackend{failAt: 2, err: sentinel}})
	x := make([]float64, u.NumParameters())
	if e, err := d.EnergyContext(context.Background(), x); err != nil || e >= 0 {
		t.Errorf("EnergyContext = %v, %v", e, err)
	}
	if _, err := d.EnergyContext(context.Background(), x); !errors.Is(err, sentinel) {
		t.Errorf("EnergyContext error %v does not unwrap to the backend's", err)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, core.ErrInvalidArgument) {
			t.Errorf("Energy with a backend recovered %v, want an ErrInvalidArgument panic", err)
		}
	}()
	d.Energy(x)
}
