// Package tuning holds the kernel-choice thresholds shared by the
// execution engine: which amplitude count engages the worker pool for a
// gate sweep or a reduction, and the cache-tile geometry of the fused
// sweep. They are constants: every measured run of this repository
// (the benchmark refuses anything else) used exactly these values, and
// comparing kernels means holding the kernel configuration fixed.
//
// The package is a leaf so that state and pauli can both read it
// without import cycles.
package tuning

const (
	// GateParallel is the minimum amplitude count before a gate sweep
	// engages the worker pool; below it the serial loop wins.
	GateParallel = 1 << 14
	// ReduceParallel is the minimum amplitude count before
	// expectation-style reductions engage the pool — lower than
	// GateParallel because a reduction touches every amplitude of every
	// term group, amortizing the handoff better than one gate does.
	ReduceParallel = 1 << 12
	// TileBits is log2 of the amplitudes per cache tile in the fused
	// sweep, and so the widest segment the compiler packs: consecutive
	// ops whose qubits together number at most TileBits are applied
	// back-to-back on one resident tile (the segment's qubits topped up
	// with the lowest others, gathered when those are not the low bits),
	// one pass over the state per segment. 2^11 amplitudes = 32 KiB,
	// sized to a typical L1 data cache.
	TileBits = 11
)

// T is the threshold set as one comparable value, for run headers and
// the daemon's capability report.
type T struct {
	GateParallel   int `json:"gate_parallel"`
	ReduceParallel int `json:"reduce_parallel"`
	TileBits       int `json:"tile_bits"`
}

// Defaults returns the compiled-in thresholds.
func Defaults() T {
	return T{
		GateParallel:   GateParallel,
		ReduceParallel: ReduceParallel,
		TileBits:       TileBits,
	}
}

// Current returns the thresholds the engine runs under, which are the
// compiled-in ones: nothing installs another set.
func Current() T { return Defaults() }

// Source reports where the thresholds came from; always "default".
func Source() string { return "default" }

// Snapshot returns the thresholds plus provenance as a plain map, for
// the daemon's capability report and the benchmark's run header.
func Snapshot() map[string]any {
	return map[string]any{
		"source":          Source(),
		"gate_parallel":   GateParallel,
		"reduce_parallel": ReduceParallel,
		"tile_bits":       TileBits,
	}
}
