package vqe

// Checkpoint/restart for the minimization loop (minimize.go) and the
// Adapt-VQE outer loop. The optimizer state structs in internal/opt carry
// everything the iteration needs, so a resumed run provably walks the
// same trajectory as an uninterrupted one (bit-exact — see the
// equivalence tests). The driver itself is stateless across energy
// evaluations in Direct mode (simulator and backends alike prepare from
// |0…0⟩ every time), which is why optimizer state alone suffices.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/resilience"
)

// Checkpoint kind tags: a resume path refuses a checkpoint written by a
// different optimizer instead of misinterpreting its payload.
const (
	KindNelderMead = "vqe/nelder-mead"
	KindLBFGS      = "vqe/lbfgs"
	KindAdapt      = "vqe/adapt"
)

// ResilienceOptions configures checkpointing for Minimize, MinimizeLBFGS
// and AdaptContext. The zero value disables persistence.
type ResilienceOptions struct {
	// CheckpointPath is the snapshot file; empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the iteration cadence between snapshot writes
	// (≤1 = every iteration).
	CheckpointEvery int
	// CheckpointGap floors the wall time between periodic snapshot writes
	// (resilience.Cadence.Gap; 0 = no floor). A halt always writes one.
	CheckpointGap time.Duration
	// Resume loads CheckpointPath before starting (a missing file is a
	// cold start, not an error).
	Resume bool
}

func (r ResilienceOptions) enabled() bool { return r.CheckpointPath != "" }

// loadResume reads the checkpoint into st when resuming; found reports
// whether usable state was restored.
func (r ResilienceOptions) loadResume(wantKind string, st any) (found bool, err error) {
	if !r.Resume || !r.enabled() {
		return false, nil
	}
	kind, _, err := resilience.LoadCheckpoint(r.CheckpointPath, st)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if kind != wantKind {
		return false, fmt.Errorf("vqe: checkpoint %s holds %q, want %q: %w",
			r.CheckpointPath, kind, wantKind, resilience.ErrCheckpointInvalid)
	}
	return true, nil
}

// AdaptState is the Adapt-VQE outer-loop checkpoint payload: the pool
// operator indices in growth order (the ansatz is reconstructed by
// replaying Grow), the optimized parameters, and the convergence
// history. ErrorVsRef may be NaN (no reference energy), which JSON
// cannot carry — history entries encode it as a nullable pointer.
type AdaptState struct {
	Selected []int              `json:"selected"`
	Params   []float64          `json:"params"`
	Energy   float64            `json:"energy"`
	Iter     int                `json:"iter"`
	History  []adaptHistoryJSON `json:"history,omitempty"`
}

type adaptHistoryJSON struct {
	Iteration    int      `json:"iteration"`
	Operator     string   `json:"operator"`
	MaxGradient  float64  `json:"max_gradient"`
	Energy       float64  `json:"energy"`
	ErrorVsRef   *float64 `json:"error_vs_ref,omitempty"` // nil ⇔ NaN
	Parameters   int      `json:"parameters"`
	CircuitDepth int      `json:"circuit_depth"`
	GateCount    int      `json:"gate_count"`
}

func historyToJSON(in []AdaptIteration) []adaptHistoryJSON {
	out := make([]adaptHistoryJSON, len(in))
	for i, it := range in {
		out[i] = adaptHistoryJSON{
			Iteration: it.Iteration, Operator: it.Operator,
			MaxGradient: it.MaxGradient, Energy: it.Energy,
			Parameters: it.Parameters, CircuitDepth: it.CircuitDepth,
			GateCount: it.GateCount,
		}
		if !math.IsNaN(it.ErrorVsRef) {
			v := it.ErrorVsRef
			out[i].ErrorVsRef = &v
		}
	}
	return out
}

func historyFromJSON(in []adaptHistoryJSON) []AdaptIteration {
	out := make([]AdaptIteration, len(in))
	for i, it := range in {
		out[i] = AdaptIteration{
			Iteration: it.Iteration, Operator: it.Operator,
			MaxGradient: it.MaxGradient, Energy: it.Energy,
			ErrorVsRef: math.NaN(), Parameters: it.Parameters,
			CircuitDepth: it.CircuitDepth, GateCount: it.GateCount,
		}
		if it.ErrorVsRef != nil {
			out[i].ErrorVsRef = *it.ErrorVsRef
		}
	}
	return out
}
