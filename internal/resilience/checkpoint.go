package resilience

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// checkpointVersion is bumped on incompatible envelope changes; Load
// rejects files from other versions rather than misinterpreting them.
const checkpointVersion = 1

// castagnoli is the CRC-32C table (the polynomial HPC interconnects and
// filesystems use for payload integrity).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is the on-disk checkpoint format: a small JSON header around
// an opaque payload. CRC32 covers the raw payload bytes, so any
// single-bit corruption of the state is detected at load time; the
// header fields are cheap enough to validate structurally.
type envelope struct {
	Version   int             `json:"version"`
	Kind      string          `json:"kind"`
	Iteration int             `json:"iteration"`
	CRC32     uint32          `json:"crc32c"`
	Payload   json.RawMessage `json:"payload"`
}

// SaveCheckpoint atomically persists payload (any JSON-marshalable
// value) under the given kind tag and iteration counter. The write is
// crash-safe: the envelope goes to a temp file in the target directory,
// is fsynced, and then renamed over path — a reader never observes a
// torn file, and a crash mid-write leaves the previous checkpoint
// intact. float64 fields round-trip exactly through encoding/json
// (shortest-representation formatting), which the bit-exact resume
// guarantees in internal/opt rely on.
func SaveCheckpoint(path, kind string, iteration int, payload any) error {
	defer mCheckpointTime.Since(telemetry.Now())
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("resilience: marshal checkpoint payload: %w", err)
	}
	env := envelope{
		Version:   checkpointVersion,
		Kind:      kind,
		Iteration: iteration,
		CRC32:     crc32.Checksum(raw, castagnoli),
		Payload:   raw,
	}
	// Compact marshal: indentation would rewrite the embedded payload
	// bytes and break the CRC the loader recomputes over them verbatim.
	buf, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("resilience: marshal checkpoint envelope: %w", err)
	}
	dir := filepath.Dir(path)
	// All I/O failures below wrap ErrCheckpointWrite so a caller can tell
	// "the spool is broken" apart from a bad payload and degrade durability
	// instead of failing the run.
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("%w: temp file: %v", ErrCheckpointWrite, err)
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		return cleanup(fmt.Errorf("%w: write: %v", ErrCheckpointWrite, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("%w: sync: %v", ErrCheckpointWrite, err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("%w: close: %v", ErrCheckpointWrite, err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: commit: %v", ErrCheckpointWrite, err)
	}
	mCheckpointWrites.Inc()
	mCheckpointBytes.Add(int64(len(buf)))
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint,
// verifying version and payload CRC before unmarshaling into payload.
// It returns the stored kind tag and iteration counter. All failure
// modes wrap ErrCheckpointInvalid so callers can distinguish "no usable
// checkpoint" from I/O errors like a missing file (reported as-is, so
// os.IsNotExist keeps working).
func LoadCheckpoint(path string, payload any) (kind string, iteration int, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	var env envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return "", 0, fmt.Errorf("%w: %s: %v", ErrCheckpointInvalid, path, err)
	}
	if env.Version != checkpointVersion {
		return "", 0, fmt.Errorf("%w: %s: version %d (want %d)", ErrCheckpointInvalid, path, env.Version, checkpointVersion)
	}
	if got := crc32.Checksum(env.Payload, castagnoli); got != env.CRC32 {
		return "", 0, fmt.Errorf("%w: %s: crc32c %08x != stored %08x", ErrCheckpointInvalid, path, got, env.CRC32)
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return "", 0, fmt.Errorf("%w: %s: payload: %v", ErrCheckpointInvalid, path, err)
	}
	mCheckpointLoads.Inc()
	return env.Kind, env.Iteration, nil
}

// CheckpointKind peeks at a checkpoint's kind tag without decoding the
// payload (used by resume paths to pick the matching optimizer).
func CheckpointKind(path string) (string, error) {
	var ignore json.RawMessage
	kind, _, err := LoadCheckpoint(path, &ignore)
	return kind, err
}

// A Cadence decides when periodic checkpoints are due: every Interval
// iterations (Interval <= 1 means every iteration), and with Gap > 0 only
// once Gap of wall time has passed since the loop started (NewCadence) or
// since the last write. The zero Cadence is usable and fires every
// iteration.
type Cadence struct {
	Interval int
	// Gap floors the wall time between writes; 0 means no floor. A loop
	// shorter than Gap writes no periodic snapshot at all.
	Gap  time.Duration
	last int
	any  bool
	// since is the loop's start, then the last write.
	since time.Time
}

// NewCadence returns a Cadence whose first Gap is counted from now, the
// start of the loop it paces.
func NewCadence(interval int, gap time.Duration) *Cadence {
	return &Cadence{Interval: interval, Gap: gap, since: time.Now()}
}

// Due reports whether a checkpoint should be written at this iteration,
// and records the write when it returns true.
func (c *Cadence) Due(iteration int) bool {
	if c.Interval > 1 && c.any && iteration-c.last < c.Interval {
		return false
	}
	if c.Gap > 0 {
		now := time.Now()
		if now.Sub(c.since) < c.Gap {
			return false
		}
		c.since = now
	}
	c.last, c.any = iteration, true
	return true
}
