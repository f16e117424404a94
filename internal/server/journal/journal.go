// Package journal is the vqed write-ahead journal: an append-only log of
// family lifecycle transitions (accepted → retrying/checkpointed →
// done/failed/…) that survives a SIGKILL of the daemon. On restart the
// journal is replayed: families that were accepted but never finished are
// re-enqueued, their open points resume from their latest resilience
// checkpoint, and settled ones keep answering client polls with their
// recorded results.
//
// There is one vocabulary (see Op) for jobs and sweep families alike: a
// record either concerns the family (Point 0) or one of its points
// (Point ≥ 1), and a job — a family of one point — writes only Point-0
// records, its terminal record carrying the result.
//
// On-disk format: a flat sequence of length-prefixed, CRC-framed
// records, reusing the internal/resilience envelope conventions
// (CRC-32C over the raw payload bytes — the polynomial HPC filesystems
// use for payload integrity):
//
//	[uint32 LE payload length][uint32 LE CRC-32C(payload)][payload JSON]
//
// Appends are fsync-batched with group commit: concurrent Append calls
// coalesce into one fsync, and every Append returns only after its
// record is durable, so an acknowledged submission is never lost to a
// crash. A crash mid-append leaves at most one torn record at the tail;
// Open detects it (short frame or CRC mismatch) and truncates the file
// back to the last intact record instead of refusing to start. Compact
// rewrites the journal to just the live records — the daemon calls it
// after replay and whenever the log has grown well past the live set —
// so the file stays proportional to in-flight work, not history.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/telemetry"
)

// Op is a lifecycle transition, of a family (Record.Point == 0) or of one
// of its points.
type Op string

const (
	// OpAccepted: the family passed admission; the record carries the
	// submitted document (a RunSpec for a job, a SweepSpec for a sweep).
	OpAccepted Op = "accepted"
	// OpRetrying: a point failed retryably and will be re-run; Attempt
	// carries the budget spent so far.
	OpRetrying Op = "retrying"
	// OpCheckpointed: a point was interrupted by a drain with a resumable
	// checkpoint at Checkpoint; non-terminal — replay resumes it.
	OpCheckpointed Op = "checkpointed"
	// OpDone: terminal success. On a point (or a job) the record carries
	// the result; on a sweep family it closes the family.
	OpDone Op = "done"
	// OpFailed: terminal failure; the record carries the error.
	OpFailed Op = "failed"
	// OpInterrupted: a job's terminal best-so-far halt (walltime or a
	// spent retry budget) with the partial result.
	OpInterrupted Op = "interrupted"
	// OpCancelled: a sweep family was cancelled by its client.
	OpCancelled Op = "cancelled"

	// OpRunning marked a worker picking a job up. It is no longer written
	// — replay took nothing from it that OpRetrying does not carry — but
	// journals from older daemons hold it, so Open still delivers it.
	OpRunning Op = "running"
)

// readAliases maps the op strings older daemons wrote for sweep families
// — a second vocabulary, told apart from the job ops by name where Point
// now does it — onto the ops above. Read side only: scan applies it,
// nothing writes these strings, and the first compaction after an
// upgrade rewrites them away.
var readAliases = map[Op]Op{
	"sweep_accepted":     OpAccepted,
	"sweep_point_done":   OpDone,
	"sweep_point_failed": OpFailed,
	"sweep_checkpoint":   OpCheckpointed,
	"sweep_done":         OpDone,
	"sweep_failed":       OpFailed,
	"sweep_cancelled":    OpCancelled,
}

// Terminal reports whether the op ends the lifecycle of what it is
// recorded against.
func (o Op) Terminal() bool {
	return o == OpDone || o == OpFailed || o == OpInterrupted || o == OpCancelled
}

// Record is one journal entry. Spec and Result stay raw JSON so the
// journal does not depend on the spec schema — the server marshals and
// unmarshals at the boundary.
type Record struct {
	Op       Op     `json:"op"`
	JobID    string `json:"job_id"`
	SpecHash string `json:"spec_hash,omitempty"`
	// Spec is the submitted document (OpAccepted only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Checkpoint is the resumable snapshot path (OpCheckpointed, and
	// terminal records of points that left one behind).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Attempt is the number of execution attempts spent (OpRetrying).
	Attempt int `json:"attempt,omitempty"`
	// Point is the 1-based submission-order index of the sweep member the
	// record concerns; 0 means the family itself — which for a job, a
	// family of one, is also its only point.
	Point int `json:"point,omitempty"`
	// Error carries the failure text (OpFailed, OpRetrying).
	Error string `json:"error,omitempty"`
	// Result is the serialized runspec.Result (OpDone, OpInterrupted).
	Result json.RawMessage `json:"result,omitempty"`
}

const (
	frameHeaderSize = 8
	// maxRecordSize bounds one payload; a length prefix beyond it is
	// treated as tail corruption, not an allocation request.
	maxRecordSize = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	mAppends   = telemetry.GetCounter("journal.appends")
	mSyncs     = telemetry.GetCounter("journal.syncs")
	mBytes     = telemetry.GetCounter("journal.bytes")
	mTruncated = telemetry.GetCounter("journal.torn_tail_truncations")
	mCompacts  = telemetry.GetCounter("journal.compactions")
)

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	path string

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	err      error // sticky write/sync failure; all later Appends fail
	closed   bool
	writeSeq int64 // records written to the OS
	syncSeq  int64 // records known durable
	syncing  bool  // syncer is inside an fsync (compaction must wait)
	appended int   // records appended since Open/Compact

	syncerDone chan struct{}
}

// Open opens (creating if absent) the journal at path, replays every
// intact record, and truncates a torn tail — the crash signature of a
// kill mid-append — back to the last intact record. The returned records
// are in append order.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	recs, good, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		// Torn or corrupt tail: everything before it is intact; drop the
		// rest so the next append starts on a frame boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		mTruncated.Inc()
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	j := &Journal{path: path, f: f, syncerDone: make(chan struct{})}
	j.cond = sync.NewCond(&j.mu)
	go j.syncLoop(j.syncerDone)
	return j, recs, nil
}

// scan reads intact records from the start of f, returning them and the
// offset just past the last intact frame. Corruption is not an error —
// the scan simply stops there.
func scan(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: seek: %w", err)
	}
	var (
		recs   []Record
		offset int64
		header [frameHeaderSize]byte
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			// EOF here is a clean end; a partial header is a torn tail.
			return recs, offset, nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordSize {
			return recs, offset, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, offset, nil
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, offset, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, offset, nil
		}
		if op, old := readAliases[rec.Op]; old {
			rec.Op = op
		}
		recs = append(recs, rec)
		offset += frameHeaderSize + int64(length)
	}
}

func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record: %w", err)
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	return buf, nil
}

// Append writes one record and blocks until it is durable on disk.
// Concurrent appends share fsyncs (group commit): the syncer coalesces
// every record written since the last barrier into a single fsync, so a
// burst of admissions pays one disk flush, not one each.
func (j *Journal) Append(rec Record) error {
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if _, werr := j.f.Write(buf); werr != nil {
		j.err = fmt.Errorf("journal: append %s: %w", j.path, werr)
		err := j.err
		j.cond.Broadcast()
		j.mu.Unlock()
		return err
	}
	j.writeSeq++
	j.appended++
	seq := j.writeSeq
	j.cond.Broadcast() // wake the syncer
	for j.syncSeq < seq && j.err == nil && !j.closed {
		//vqelint:ignore lockdiscipline group commit: Cond.Wait releases j.mu while parked; holding it here is the condition-variable protocol, not a stall
		j.cond.Wait()
	}
	err = j.err
	closed := j.closed && j.syncSeq < seq
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		return fmt.Errorf("journal: %s closed before record was durable", j.path)
	}
	mAppends.Inc()
	mBytes.Add(int64(len(buf)))
	return nil
}

// syncLoop is the group-commit worker: it waits for unsynced writes,
// fsyncs once for however many have accumulated, and wakes every Append
// blocked on durability. done is closed when the loop exits (Close joins
// on it).
func (j *Journal) syncLoop(done chan struct{}) {
	defer close(done)
	//vqelint:ignore ctxflow lifecycle loop bounded by Close (j.closed wakes and exits it), not by a context — the journal outlives any request
	for {
		j.mu.Lock()
		for j.syncSeq == j.writeSeq && !j.closed && j.err == nil {
			//vqelint:ignore lockdiscipline Cond.Wait releases j.mu while parked; this is the syncer's idle wait, not a held-lock block
			j.cond.Wait()
		}
		if j.err != nil || (j.closed && j.syncSeq == j.writeSeq) {
			j.mu.Unlock()
			return
		}
		target := j.writeSeq
		f := j.f
		j.syncing = true
		j.mu.Unlock()

		err := f.Sync()

		j.mu.Lock()
		j.syncing = false
		if err != nil && j.err == nil {
			j.err = fmt.Errorf("journal: sync %s: %w", j.path, err)
		}
		if err == nil {
			j.syncSeq = target
			mSyncs.Inc()
		}
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// Appended reports how many records have been appended since Open or the
// last Compact — the compaction trigger the server compares against its
// live-job count.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Compact atomically replaces the journal contents with exactly the
// given records (the caller's snapshot of live state): they are written
// to a temp file in the same directory, fsynced, and renamed over the
// journal, so a crash mid-compaction leaves the previous journal intact.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	// Quiesce the syncer: wait out any in-flight fsync and drain pending
	// durability so no goroutine touches the old file once it is swapped.
	for (j.syncing || j.syncSeq < j.writeSeq) && j.err == nil {
		//vqelint:ignore lockdiscipline quiesce barrier: Cond.Wait releases j.mu so the syncer can finish; the lock must be reacquired before the swap
		j.cond.Wait()
	}
	if j.err != nil {
		return j.err
	}

	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: compact temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	for _, rec := range live {
		buf, err := frame(rec)
		if err != nil {
			return cleanup(err)
		}
		if _, err := tmp.Write(buf); err != nil {
			return cleanup(fmt.Errorf("journal: compact write: %w", err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("journal: compact sync: %w", err))
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		return cleanup(fmt.Errorf("journal: compact rename: %w", err))
	}
	old := j.f
	j.f = tmp
	old.Close()
	j.appended = 0
	mCompacts.Inc()
	return nil
}

// Close flushes pending writes and releases the file. Further Appends
// fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
	<-j.syncerDone

	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.err
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal: close %s: %w", j.path, cerr)
	}
	return err
}
