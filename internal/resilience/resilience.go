// Package resilience is the fault-tolerance layer for long-running VQE
// workloads on walltime-limited HPC systems (Frontier/Perlmutter-style
// allocations, paper §6): atomic CRC-verified checkpoints of optimizer
// state, a deterministic seedable fault injector for communication
// drills, a bounded-retry policy with exponential backoff, and
// SLURM-style walltime budgets expressed as context deadlines.
//
// The package is deliberately mechanism-only: it knows how to persist an
// opaque payload, how to decide that a simulated transfer failed, and how
// to pace retries — the policies (what goes in a checkpoint, which
// transfers are guarded) live with the subsystems that use it
// (internal/opt, internal/vqe, internal/cluster, internal/runspec).
package resilience

import (
	"errors"

	"repro/internal/telemetry"
)

// Sentinel errors for the recovery paths. All are wrapped with %w by the
// call sites so errors.Is works across package boundaries.
var (
	// ErrCorrupted reports a payload whose checksum did not verify.
	ErrCorrupted = errors.New("resilience: payload corrupted")
	// ErrDropped reports a transfer that never arrived (simulated
	// timeout on a dropped message).
	ErrDropped = errors.New("resilience: transfer dropped")
	// ErrRetriesExhausted reports an operation that kept failing past
	// its retry budget.
	ErrRetriesExhausted = errors.New("resilience: retries exhausted")
	// ErrCheckpointInvalid reports an unreadable, mis-versioned, or
	// CRC-failing checkpoint file.
	ErrCheckpointInvalid = errors.New("resilience: invalid checkpoint")
	// ErrCheckpointWrite reports an I/O failure persisting a checkpoint
	// (disk full, unwritable spool dir). Callers that can run without
	// durability — the vqed daemon — match it to shed checkpointing
	// gracefully instead of failing the workload.
	ErrCheckpointWrite = errors.New("resilience: checkpoint write failed")
)

// Package-wide instruments: recovery activity must be visible in
// run_report.json, so operators can tell a clean run from one that
// survived faults.
var (
	mCheckpointWrites = telemetry.GetCounter("resilience.checkpoint.writes")
	mCheckpointBytes  = telemetry.GetCounter("resilience.checkpoint.bytes")
	mCheckpointLoads  = telemetry.GetCounter("resilience.checkpoint.loads")
	mCheckpointTime   = telemetry.GetTimer("resilience.checkpoint.write")
	mRetryAttempts    = telemetry.GetCounter("resilience.retry.attempts")
	mRetryExhausted   = telemetry.GetCounter("resilience.retry.exhausted")
	mDeadlineCancels  = telemetry.GetCounter("resilience.deadline.cancels")
)

// NoteDeadlineCancel records one graceful deadline-triggered stop (called
// by the drivers when a walltime budget cancels an optimization loop).
func NoteDeadlineCancel() { mDeadlineCancels.Inc() }
