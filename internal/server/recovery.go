package server

// Journal replay: how a restarted daemon rebuilds its family table. Every
// family the journal holds reappears — settled points with their recorded
// results (so clients polling across the restart still get answers, and
// the result cache is warm again), unfinished families re-enqueued with
// only their open points left to run, each resuming from its latest
// resilience checkpoint when one validates; then the settledBudget a
// running daemon keeps evicts the oldest settled ones. Compaction is the same
// thing backwards: liveSnapshot writes the minimal record set that replays
// to the current table, so eviction bounds the journal too.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/runspec"
	"repro/internal/server/journal"
	"repro/internal/telemetry"
)

var (
	mJobsReplayed   = telemetry.GetCounter("server.jobs.replayed_terminal")
	mRecoverDropped = telemetry.GetCounter("server.recovery.dropped_records")
)

// fact is what the journal establishes about one point of a family — or,
// under index 0, about the family itself (and so about a solo family's
// point, see family.pointNo). Records for one family may interleave with
// other families' and repeat across retries; the merge keeps the terminal
// fact, if any, plus the latest checkpoint and attempt.
type fact struct {
	// op is the terminal op, or empty while the point is unsettled.
	op         journal.Op
	result     json.RawMessage
	errMsg     string
	checkpoint string
	attempt    int
}

// replayed is the merged outcome of a journal scan for one family: the
// submitted document, the facts keyed by point number, and the index of
// its last record — for a settled family, where it settled.
type replayed struct {
	id    string
	hash  string
	doc   json.RawMessage
	facts map[int]*fact
	last  int
}

// mergeRecords folds a replayed record stream into per-family outcomes,
// preserving first-appearance order.
func mergeRecords(recs []journal.Record) []*replayed {
	byID := map[string]*replayed{}
	var order []*replayed
	for i, rec := range recs {
		if rec.JobID == "" || rec.Point < 0 {
			mRecoverDropped.Inc()
			continue
		}
		e := byID[rec.JobID]
		if e == nil {
			e = &replayed{id: rec.JobID, facts: map[int]*fact{}}
			byID[rec.JobID] = e
			order = append(order, e)
		}
		e.last = i
		if rec.Point == 0 && rec.SpecHash != "" {
			e.hash = rec.SpecHash
		}
		ft := e.facts[rec.Point]
		if ft == nil {
			ft = &fact{}
			e.facts[rec.Point] = ft
		}
		switch rec.Op {
		case journal.OpAccepted:
			e.doc = rec.Spec
		case journal.OpRunning, journal.OpRetrying:
			if !ft.op.Terminal() {
				ft.attempt = rec.Attempt
			}
		case journal.OpCheckpointed:
			if !ft.op.Terminal() {
				ft.checkpoint = rec.Checkpoint
			}
		case journal.OpDone, journal.OpFailed, journal.OpInterrupted, journal.OpCancelled:
			// A later terminal record wins, except over a result.
			if ft.op != journal.OpDone {
				ft.op, ft.result, ft.errMsg = rec.Op, rec.Result, rec.Error
				if rec.Checkpoint != "" {
					ft.checkpoint = rec.Checkpoint
				}
			}
		default:
			mRecoverDropped.Inc()
		}
	}
	return order
}

// replay rebuilds the family table from the journal's records, returning
// the families to re-enqueue, and bounds the settled ones as a running
// daemon does (settledBudget). The sequences come from every record
// first, so an id evicted here is still never reissued. Called from New
// before the worker fleet starts, so no locking is needed yet.
func (s *Server) replay(recs []journal.Record) []*family {
	var pending []*family
	merged := mergeRecords(recs)
	for _, e := range merged {
		f := s.rebuild(e)
		s.register(f)
		if n := seqOf(f.kind(), e.id); n > s.seq[f.kind()] {
			s.seq[f.kind()] = n
		}
		if f.status.Terminal() {
			mJobsReplayed.Inc()
			continue
		}
		pending = append(pending, f)
		countersOf[f.kind()].recovered.Inc()
	}
	// Settled families enlist in the order they settled, which their last
	// records keep (compaction writes them in that order too); listings go
	// by id, which concurrent admissions may have journaled out of order.
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].last < merged[b].last })
	for _, e := range merged {
		if f := s.families[e.id]; f.status.Terminal() {
			s.enlist(f)
		}
	}
	for kind, ids := range s.order {
		sort.SliceStable(ids, func(a, b int) bool { return seqOf(kind, ids[a]) < seqOf(kind, ids[b]) })
		dropCheckpoints(s.evict(kind))
	}
	return pending
}

// kindOfID tells the two views apart by the id's prefix (foreign ids
// read as jobs).
func kindOfID(id string) string {
	if strings.HasPrefix(id, kindSweep+"-") {
		return kindSweep
	}
	return kindJob
}

// expand parses a journaled document back into the points it was
// admitted as. Expansion is deterministic, so a sweep re-expands to the
// same points.
func expand(kind string, doc json.RawMessage) (*runspec.SweepSpec, []runspec.SweepPoint, error) {
	if len(doc) == 0 {
		return nil, nil, errors.New("no document journaled")
	}
	if kind == kindJob {
		spec, err := runspec.Parse(doc)
		if err != nil {
			return nil, nil, err
		}
		return nil, soloPoints(spec), nil
	}
	ss, err := runspec.ParseSweep(doc)
	if err != nil {
		return nil, nil, err
	}
	points, err := ss.Points()
	return ss, points, err
}

// rebuild turns one merged journal outcome into a live family: settled
// points replay their recorded outcomes — done results also re-seed the
// spec-hash cache — and open ones re-arm their checkpoints.
func (s *Server) rebuild(e *replayed) *family {
	top := e.facts[0]
	if top == nil {
		top = &fact{}
		e.facts[0] = top
	}
	kind := kindOfID(e.id)
	sweep, points, err := expand(kind, e.doc)
	if err != nil {
		// Without a re-expandable document the family cannot re-run: a
		// terminal one still answers polls (it does not need to re-run), a
		// live one is genuinely lost and surfaces as failed rather than
		// silently dropping the ID.
		sweep, points = nil, soloPoints(&runspec.RunSpec{})
		if kind == kindSweep {
			sweep, points = &runspec.SweepSpec{}, nil
		}
		if !top.op.Terminal() {
			s.logf("vqed: recovery: %s has no recoverable spec (%v), marking failed", e.id, err)
			top.op = journal.OpFailed
			top.errMsg = "server: journal holds no recoverable spec for this " + kind
		}
	}

	f := newFamily(e.id, sweep, points)
	if e.hash != "" {
		f.hash = e.hash
		if f.solo() {
			f.points[0].pt.Hash = e.hash
		}
	}
	for _, p := range f.points {
		ft := e.facts[f.pointNo(p)]
		if ft == nil {
			ft = &fact{}
		}
		s.restore(f, p, ft)
	}
	for n := range e.facts {
		if n > len(f.points) {
			mRecoverDropped.Inc()
		}
	}

	if !top.op.Terminal() {
		f.publish(Event{Type: string(StatusQueued)})
		return f
	}
	f.status, f.err = Status(top.op), top.errMsg
	now := time.Now()
	f.started, f.finished = now, now
	if f.status == StatusCancelled {
		for _, p := range f.points {
			if !p.status.Terminal() {
				p.status = StatusCancelled
			}
		}
	}
	f.publish(Event{Type: string(f.status), Error: f.err})
	return f
}

// restore applies the journal's fact about one point.
func (s *Server) restore(f *family, p *point, ft *fact) {
	p.attempt = ft.attempt
	if ft.op.Terminal() {
		p.status, p.err, p.checkpoint = Status(ft.op), ft.errMsg, ft.checkpoint
		if len(ft.result) == 0 {
			return
		}
		var res runspec.Result
		if err := json.Unmarshal(ft.result, &res); err != nil {
			s.logf("vqed: recovery: %s point %d result unusable: %v", f.ID, p.pt.Index+1, err)
			return
		}
		p.result = &res
		if p.status == StatusDone {
			s.cacheStore(p.pt.Hash, &res)
		}
		return
	}
	// Unfinished: resume from the journaled checkpoint when it verifies.
	// A crash between checkpoint write and journal append leaves a spool
	// file the journal never heard about — still resumable, so probe the
	// point's own spool path too.
	ckpt := ft.checkpoint
	if ckpt == "" {
		ckpt = s.checkpointPath(f, p)
	}
	if s.resumable(ckpt) {
		p.checkpoint, p.resume = ckpt, true
	}
}

// seqOf extracts the numeric suffix of a "<kind>-%06d" ID (0 if foreign).
func seqOf(kind, id string) int {
	num, ok := strings.CutPrefix(id, kind+"-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// fileExists reports whether path names a regular file ("" does not).
func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// rawJSON marshals a journal payload: the journal keeps submitted
// documents and results as raw JSON so it does not depend on their
// schema.
func rawJSON(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return raw
}

// journalResult marshals a result for a terminal record.
func journalResult(res *runspec.Result) json.RawMessage {
	if res == nil {
		return nil
	}
	return rawJSON(res)
}

// compactThreshold is how many appended records trigger a background
// journal compaction after a family settles.
const compactThreshold = 512

// liveSnapshot rebuilds the minimal record set that reproduces the
// current family table: accepted (+document) for every retained family
// (an evicted one leaves the journal with the next compaction), the
// terminal record (with result) for every settled point, the latest
// attempt/checkpoint facts for open ones, and the terminal record of
// every settled family. Settled families come first, in the order they
// settled, so replay restores that order; open ones follow by id.
func (s *Server) liveSnapshot() []journal.Record {
	// Snapshot the family list under s.mu, then read each family under its
	// own lock only after s.mu is released (same lock-order discipline as
	// the HTTP listing path).
	s.mu.Lock()
	var families []*family
	for _, kind := range []string{kindJob, kindSweep} {
		families = append(families, s.retired[kind]...)
		for _, id := range s.order[kind] {
			if f := s.families[id]; !f.final {
				families = append(families, f)
			}
		}
	}
	s.mu.Unlock()

	var recs []journal.Record
	for _, f := range families {
		f.mu.Lock()
		recs = append(recs, journal.Record{
			Op: journal.OpAccepted, JobID: f.ID, SpecHash: f.hash, Spec: f.document(),
		})
		for _, p := range f.points {
			rec := journal.Record{JobID: f.ID, Point: f.pointNo(p), SpecHash: p.pt.Hash}
			switch p.status {
			case StatusDone, StatusFailed, StatusInterrupted:
				rec.Op = journal.Op(p.status)
				rec.Result, rec.Error, rec.Checkpoint = journalResult(p.result), p.err, p.checkpoint
				recs = append(recs, rec)
			case StatusCancelled:
				// Implied by the family's cancelled record.
			default:
				if p.attempt > 0 {
					rec.Op, rec.Attempt = journal.OpRetrying, p.attempt
					recs = append(recs, rec)
				}
				if p.resume && p.checkpoint != "" {
					rec.Op, rec.Attempt, rec.Checkpoint = journal.OpCheckpointed, 0, p.checkpoint
					recs = append(recs, rec)
				}
			}
		}
		// A solo family's point record is its terminal record; a parked
		// (interrupted) family is not settled — replay re-enqueues it.
		if !f.solo() && f.status.Terminal() && f.status != StatusInterrupted {
			recs = append(recs, journal.Record{
				Op: journal.Op(f.status), JobID: f.ID, SpecHash: f.hash, Error: f.err,
			})
		}
		f.mu.Unlock()
	}
	return recs
}

// compactIfNeeded rewrites the journal down to the live snapshot once
// enough appends have accumulated. At most one compaction runs at a time;
// contenders simply skip (the next settling family retries).
func (s *Server) compactIfNeeded(force bool) {
	s.mu.Lock()
	jn := s.jn
	s.mu.Unlock()
	if jn == nil {
		return
	}
	if !force && jn.Appended() < compactThreshold {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	// Whatever the table holds now is in the snapshot (a family registers
	// before its accepted record is appended, a point's state changes
	// before its record is); whatever comes later waits for the new file.
	s.journalGate.Lock()
	defer s.journalGate.Unlock()
	if err := jn.Compact(s.liveSnapshot()); err != nil {
		s.degrade(fmt.Sprintf("journal compaction failed: %v", err))
	}
}
