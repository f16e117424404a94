package vqe

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ansatz"
	"repro/internal/opt"
	"repro/internal/pauli"
	"repro/internal/resilience"
)

// TestMinimizeCrashResumeEquivalence is the crash/restart property test:
// a checkpointed Nelder–Mead VQE killed at an arbitrary iteration and
// resumed from its snapshot must land on the same optimum — energy and
// parameters within 1e-12 and the identical evaluation count — as the
// run that was never interrupted.
func TestMinimizeCrashResumeEquivalence(t *testing.T) {
	h, u, fci := h2Setup(t)
	x0 := make([]float64, u.NumParameters())
	o := opt.NelderMeadOptions{MaxIter: 2000}

	ref, _ := New(h, u, Options{Mode: Direct})
	full, err := ref.Minimize(context.Background(), x0, o, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Energy-fci) > 1e-5 {
		t.Fatalf("reference run off FCI: %v vs %v", full.Energy, fci)
	}

	for _, killAt := range []int{2, 17, full.Optimizer.Iterations - 2} {
		if killAt < 1 || killAt >= full.Optimizer.Iterations {
			continue
		}
		path := filepath.Join(t.TempDir(), "nm.ckpt")
		// "Crash": cancel the context mid-run; MinimizeContext writes a
		// final checkpoint and returns the best vertex so far.
		ctx, cancel := context.WithCancel(context.Background())
		dKill, _ := New(h, u, Options{Mode: Direct})
		killOpts := o
		killOpts.Observer = func(st *opt.NelderMeadState) error {
			if st.Iter >= killAt {
				cancel()
			}
			return nil
		}
		partial, err := dKill.Minimize(ctx, x0, killOpts, ResilienceOptions{CheckpointPath: path, CheckpointEvery: 1})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted {
			t.Fatalf("killAt=%d: run not interrupted", killAt)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("killAt=%d: no checkpoint written: %v", killAt, err)
		}

		dResume, _ := New(h, u, Options{Mode: Direct})
		resumed, err := dResume.Minimize(context.Background(), x0, o, ResilienceOptions{CheckpointPath: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Interrupted {
			t.Fatalf("killAt=%d: resumed run interrupted", killAt)
		}
		if math.Abs(resumed.Energy-full.Energy) > 1e-12 {
			t.Errorf("killAt=%d: resumed energy %v != full %v", killAt, resumed.Energy, full.Energy)
		}
		for i := range full.Params {
			if math.Abs(resumed.Params[i]-full.Params[i]) > 1e-12 {
				t.Errorf("killAt=%d: param %d: %v != %v", killAt, i, resumed.Params[i], full.Params[i])
			}
		}
		if resumed.Optimizer.Evaluations != full.Optimizer.Evaluations {
			t.Errorf("killAt=%d: trajectory diverged: %d evaluations != %d",
				killAt, resumed.Optimizer.Evaluations, full.Optimizer.Evaluations)
		}
	}
}

// TestMinimizeLBFGSCrashResumeEquivalence is the same property for the
// gradient-based path, with kill points spread over the real trajectory.
func TestMinimizeLBFGSCrashResumeEquivalence(t *testing.T) {
	h, u, fci := h2Setup(t)
	x0 := make([]float64, u.NumParameters())
	o := opt.LBFGSOptions{MaxIter: 200}

	ref, _ := New(h, u, Options{Mode: Direct})
	full, err := ref.MinimizeLBFGS(context.Background(), x0, o, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Energy-fci) > 1e-6 {
		t.Fatalf("reference run off FCI: %v vs %v", full.Energy, fci)
	}

	for _, killAt := range []int{1, full.Optimizer.Iterations / 2} {
		if killAt < 1 || killAt >= full.Optimizer.Iterations {
			continue
		}
		path := filepath.Join(t.TempDir(), "lbfgs.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		dKill, _ := New(h, u, Options{Mode: Direct})
		killOpts := o
		killOpts.Observer = func(st *opt.LBFGSState) error {
			if st.Iter >= killAt {
				cancel()
			}
			return nil
		}
		partial, err := dKill.MinimizeLBFGS(ctx, x0, killOpts, ResilienceOptions{CheckpointPath: path, CheckpointEvery: 1})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted {
			t.Fatalf("killAt=%d: run not interrupted", killAt)
		}

		dResume, _ := New(h, u, Options{Mode: Direct})
		resumed, err := dResume.MinimizeLBFGS(context.Background(), x0, o, ResilienceOptions{CheckpointPath: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(resumed.Energy-full.Energy) > 1e-12 {
			t.Errorf("killAt=%d: resumed energy %v != full %v", killAt, resumed.Energy, full.Energy)
		}
		for i := range full.Params {
			if math.Abs(resumed.Params[i]-full.Params[i]) > 1e-12 {
				t.Errorf("killAt=%d: param %d: %v != %v", killAt, i, resumed.Params[i], full.Params[i])
			}
		}
		if resumed.Optimizer.Iterations != full.Optimizer.Iterations {
			t.Errorf("killAt=%d: iterations %d != %d", killAt, resumed.Optimizer.Iterations, full.Optimizer.Iterations)
		}
	}
}

// TestMinimizeRejectsForeignCheckpoint: resuming Nelder–Mead from an
// L-BFGS checkpoint must fail loudly, not silently misinterpret it.
func TestMinimizeRejectsForeignCheckpoint(t *testing.T) {
	h, u, _ := h2Setup(t)
	path := filepath.Join(t.TempDir(), "wrong.ckpt")
	if err := resilience.SaveCheckpoint(path, KindLBFGS, 3, &opt.LBFGSState{X: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	d, _ := New(h, u, Options{Mode: Direct})
	_, err := d.Minimize(context.Background(), make([]float64, u.NumParameters()),
		opt.NelderMeadOptions{MaxIter: 5}, ResilienceOptions{CheckpointPath: path, Resume: true})
	if !errors.Is(err, resilience.ErrCheckpointInvalid) {
		t.Fatalf("want ErrCheckpointInvalid, got %v", err)
	}
}

// TestEnergyContextHonorsCancellation.
func TestEnergyContextHonorsCancellation(t *testing.T) {
	h, u, _ := h2Setup(t)
	d, _ := New(h, u, Options{Mode: Direct})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.EnergyContext(ctx, make([]float64, u.NumParameters())); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d.Stats().EnergyEvaluations != 0 {
		t.Error("energy evaluated after cancellation")
	}
}

// TestWalltimeDeadlineReturnsBestSoFar: an already-exhausted walltime
// budget still yields a usable (best-so-far) result plus a checkpoint —
// the graceful-degradation contract for SLURM-style runs.
func TestWalltimeDeadlineReturnsBestSoFar(t *testing.T) {
	h, u, _ := h2Setup(t)
	path := filepath.Join(t.TempDir(), "deadline.ckpt")
	ctx, cancel := resilience.WithWalltime(context.Background(), time.Nanosecond, 0)
	defer cancel()
	<-ctx.Done()
	d, _ := New(h, u, Options{Mode: Direct})
	res, err := d.Minimize(ctx, make([]float64, u.NumParameters()),
		opt.NelderMeadOptions{MaxIter: 2000}, ResilienceOptions{CheckpointPath: path, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("expired walltime did not interrupt")
	}
	if math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) {
		t.Fatalf("unusable best-so-far energy %v", res.Energy)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no final checkpoint on deadline: %v", err)
	}
}

// TestAdaptCheckpointResume: an Adapt-VQE run cut off after its first
// outer iteration and resumed from the checkpoint must reproduce the
// uninterrupted run's growth trajectory and final energy.
func TestAdaptCheckpointResume(t *testing.T) {
	h, u, _ := h2Setup(t)
	_ = u
	pool, err := ansatz.NewPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := AdaptOptions{MaxIterations: 4, Reference: math.NaN()}
	full, err := Adapt(h, pool, 4, 2, o)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "adapt.ckpt")
	first, err := AdaptContext(context.Background(), pauli.NewPlan(h), pool, 4, 2,
		AdaptOptions{MaxIterations: 1, Reference: math.NaN()},
		ResilienceOptions{CheckpointPath: path, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.History) != 1 {
		t.Fatalf("first leg ran %d iterations, want 1", len(first.History))
	}
	resumed, err := AdaptContext(context.Background(), pauli.NewPlan(h), pool, 4, 2, o,
		ResilienceOptions{CheckpointPath: path, CheckpointEvery: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resumed.Energy-full.Energy) > 1e-12 {
		t.Errorf("resumed energy %v != full %v", resumed.Energy, full.Energy)
	}
	if len(resumed.History) != len(full.History) {
		t.Fatalf("resumed history %d entries != full %d", len(resumed.History), len(full.History))
	}
	for i := range full.History {
		if resumed.History[i].Operator != full.History[i].Operator {
			t.Errorf("iteration %d picked %q, full run picked %q",
				i+1, resumed.History[i].Operator, full.History[i].Operator)
		}
	}
	if resumed.Converged != full.Converged {
		t.Errorf("converged %v != %v", resumed.Converged, full.Converged)
	}
}

// TestAdaptDeadlineInterrupts: a canceled context stops the outer loop
// before any work and flags the result.
func TestAdaptDeadlineInterrupts(t *testing.T) {
	h, _, _ := h2Setup(t)
	pool, err := ansatz.NewPool(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AdaptContext(ctx, pauli.NewPlan(h), pool, 4, 2, AdaptOptions{MaxIterations: 3, Reference: math.NaN()}, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("canceled Adapt not flagged as interrupted")
	}
	if len(res.History) != 0 {
		t.Error("iterations ran after cancellation")
	}
}
