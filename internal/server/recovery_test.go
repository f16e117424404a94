package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/server/journal"
	"repro/internal/telemetry"
)

// writeJournal builds a journal file in dir from the given records, as if
// a previous daemon process had crashed after appending them.
func writeJournal(t *testing.T, dir string, recs []journal.Record) {
	t.Helper()
	jn, replayed, err := journal.Open(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(replayed))
	}
	for _, rec := range recs {
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReplaysJournal: a daemon started on a spool whose journal
// holds an accepted-but-unfinished job and a completed one restores both —
// the unfinished job re-runs to completion, the completed one answers
// polls with its recorded result without re-simulation.
func TestRecoveryReplaysJournal(t *testing.T) {
	spool := t.TempDir()
	pendingSpec := &runspec.RunSpec{
		Optimizer: runspec.OptimizerSpec{Method: "nelder-mead", MaxIter: 50},
	}
	doneResult := &runspec.Result{Energy: -1.25, Converged: true}
	writeJournal(t, spool, []journal.Record{
		{Op: journal.OpAccepted, JobID: "job-000003", SpecHash: pendingSpec.Hash(),
			Spec: rawJSON(pendingSpec)},
		{Op: journal.OpAccepted, JobID: "job-000007", SpecHash: "sha256:feed",
			Spec: rawJSON(&runspec.RunSpec{})},
		{Op: journal.OpRunning, JobID: "job-000003", Attempt: 0},
		{Op: journal.OpDone, JobID: "job-000007", Result: journalResult(doneResult)},
	})

	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool})

	// The completed job answers immediately from its journaled result.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-000007/result")
	if err != nil {
		t.Fatal(err)
	}
	var res runspec.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed result: status %d err %v", resp.StatusCode, err)
	}
	if res.Energy != -1.25 {
		t.Errorf("replayed energy = %v, want -1.25", res.Energy)
	}

	// The unfinished job re-enqueued and runs to completion.
	v := pollDone(t, ts, "job-000003", 60*time.Second)
	if v.Status != StatusDone || v.Result == nil {
		t.Fatalf("recovered job settled as %s (err=%q)", v.Status, v.Error)
	}

	// The ID sequence continues past the replayed maximum — no reuse.
	job, err := srv.Submit(&runspec.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000008" {
		t.Errorf("post-recovery ID = %s, want job-000008", job.ID)
	}
}

// TestRecoveryTornJournalTail: garbage appended after the last intact
// record (a torn final write) is truncated away; the intact prefix
// replays and the journal stays writable — no degradation.
func TestRecoveryTornJournalTail(t *testing.T) {
	spool := t.TempDir()
	spec := &runspec.RunSpec{}
	writeJournal(t, spool, []journal.Record{
		{Op: journal.OpAccepted, JobID: "job-000001", SpecHash: spec.Hash(),
			Spec: rawJSON(spec)},
		{Op: journal.OpDone, JobID: "job-000001",
			Result: journalResult(&runspec.Result{Energy: -2})},
	})
	path := filepath.Join(spool, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x42\x00\x00\x00torn-half-written-frame")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts := newTestServer(t, Config{SpoolDir: spool})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status     string `json:"status"`
		Journaling bool   `json:"journaling"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || !health.Journaling {
		t.Errorf("healthz after torn tail = %+v, want ok/journaling", health)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/job-000001")
	if err != nil {
		t.Fatal(err)
	}
	var v View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || v.Status != StatusDone {
		t.Errorf("job after torn tail: status %v err %v", v.Status, err)
	}
}

// pointFault is one row of the point-level fault table: a fault injected
// into the engine's progress path (or the spool), and how a point that
// meets it must end. Every row runs against a solo job and against a
// 3-point family whose first-executed point meets the fault.
type pointFault struct {
	cfg Config
	// hook builds the row's fault hook, fresh per run.
	hook func() FaultHook
	// blockSpool squats a directory on the first-executed point's
	// checkpoint path, so its first snapshot fails to commit.
	blockSpool bool
	// recovers: the retry completes the point. Otherwise the point spends
	// its whole budget and fails — and the family carries on without it.
	recovers bool
}

// panicTimes panics on the first n progress samples it observes.
func panicTimes(n int64) func() FaultHook {
	return func() FaultHook {
		var seen atomic.Int64
		return func(ctx context.Context, id string, p runspec.Progress) {
			if seen.Add(1) <= n {
				panic("server: injected test panic")
			}
		}
	}
}

var pointFaults = map[string]pointFault{
	// An injected worker panic on the first progress sample is recovered,
	// the point re-runs, and the retry completes normally.
	"panic": {cfg: Config{RetryBudget: 2}, hook: panicTimes(1), recovers: true},
	// A hook that blocks the engine's progress path past StallTimeout is
	// cancelled by the watchdog; the retry (the hook fires only once)
	// completes the point. An untimed stall is exactly what the watchdog
	// exists to catch.
	"stall": {cfg: Config{RetryBudget: 2, StallTimeout: 200 * time.Millisecond}, recovers: true,
		hook: holdFirstPoint},
	// A point whose every attempt panics settles terminally once the
	// budget is spent instead of looping forever.
	"budget": {cfg: Config{RetryBudget: 1}, hook: panicTimes(2)},
	// resilience.ErrCheckpointWrite means the spool is broken, not the
	// point: checkpointing is shed and the point re-runs without it.
	"checkpoint-write": {cfg: Config{RetryBudget: 2}, blockSpool: true, recovers: true},
}

// runPointFault drives one table row through both views.
func runPointFault(t *testing.T, name string) {
	const faultSpec = `{"optimizer":{"method":"nelder-mead","max_iter":60},"resilience":{"checkpoint_every":1}}`
	row := pointFaults[name]
	boot := func(t *testing.T, firstCheckpoint string) *httptest.Server {
		cfg := row.cfg
		cfg.MaxConcurrent, cfg.SpoolDir = 1, t.TempDir()
		if row.hook != nil {
			cfg.FaultHook = row.hook()
		}
		if row.blockSpool {
			squat := filepath.Join(cfg.SpoolDir, firstCheckpoint)
			if err := os.MkdirAll(filepath.Join(squat, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		_, ts := newTestServer(t, cfg)
		return ts
	}
	shedSpool := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		if !row.blockSpool {
			return
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Status string `json:"status"`
			Reason string `json:"degraded_reason"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		if health.Status != "degraded" || !strings.Contains(health.Reason, "checkpoint write failed") {
			t.Errorf("healthz after a failed checkpoint write = %+v, want the spool shed", health)
		}
	}

	t.Run("solo", func(t *testing.T) {
		ts := boot(t, "job-000001.ckpt")
		v := submitSpec(t, ts, faultSpec)
		done := pollDone(t, ts, v.ID, 60*time.Second)
		if row.recovers {
			if done.Status != StatusDone || done.Result == nil {
				t.Fatalf("faulted job settled as %s (err=%q), want done after the retry", done.Status, done.Error)
			}
			if done.Attempt == 0 {
				t.Errorf("job completed with attempt=0; the retry was not recorded")
			}
		} else {
			if done.Status != StatusFailed {
				t.Fatalf("always-faulting job settled as %s, want failed", done.Status)
			}
			if done.Error == "" {
				t.Errorf("terminal failure carries no reason")
			}
		}
		shedSpool(t, ts)
	})

	t.Run("family", func(t *testing.T) {
		// Point 1 has the lowest axis value, so it executes — and meets
		// the fault — first.
		ts := boot(t, "sweep-000001-p001.ckpt")
		v, _ := submitSweep(t, ts, `{"base":`+faultSpec+`,"axis":{"param":"distance","values":[0.5,0.7414,1.5]}}`)
		done := pollSweepDone(t, ts, v.ID, 120*time.Second)
		if len(done.PointStates) != 3 {
			t.Fatalf("family settled with %d point states: %+v", len(done.PointStates), done)
		}
		first := done.PointStates[0]
		if first.Attempt == 0 {
			t.Errorf("faulted point shows attempt=0; the retry was not recorded: %+v", first)
		}
		for _, p := range done.PointStates[1:] {
			if p.Status != StatusDone || p.Attempt != 0 {
				t.Errorf("point %d after the faulted one: %+v, want done on the first attempt", p.Point, p)
			}
		}
		if row.recovers {
			if done.Status != StatusDone || done.Done != 3 || first.Status != StatusDone {
				t.Errorf("family settled %s (%q), first point %+v, want all three done", done.Status, done.Error, first)
			}
		} else {
			if done.Status != StatusFailed || done.Error != "1 of 3 point(s) failed" || done.Done != 2 || done.Failed != 1 {
				t.Errorf("family settled %s (%q) %d done %d failed, want failed with 1 of 3", done.Status, done.Error, done.Done, done.Failed)
			}
			if first.Status != StatusFailed || !strings.Contains(first.Error, "retry budget exhausted") {
				t.Errorf("always-faulting point %+v, want failed on a spent budget", first)
			}
		}
		shedSpool(t, ts)
	})
}

// The table's rows, under the names the solo cases have always had.
func TestPanicIsolationRetriesToDone(t *testing.T)      { runPointFault(t, "panic") }
func TestWatchdogCancelsStalledJob(t *testing.T)        { runPointFault(t, "stall") }
func TestRetryBudgetExhausted(t *testing.T)             { runPointFault(t, "budget") }
func TestCheckpointWriteFailureShedsSpool(t *testing.T) { runPointFault(t, "checkpoint-write") }

// TestDegradedJournalStillServes: an unusable journal path (a directory
// squatting on journal.wal) degrades durability but the daemon still
// accepts and completes jobs; /healthz reports the reason.
func TestDegradedJournalStillServes(t *testing.T) {
	spool := t.TempDir()
	if err := os.MkdirAll(filepath.Join(spool, journalFile), 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{SpoolDir: spool})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status     string `json:"status"`
		Journaling bool   `json:"journaling"`
		Reason     string `json:"degraded_reason"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Journaling || health.Reason == "" {
		t.Fatalf("healthz with broken journal = %+v, want degraded", health)
	}

	v := submitSpec(t, ts, `{"molecule": {"kind": "h2"}}`)
	done := pollDone(t, ts, v.ID, 30*time.Second)
	if done.Status != StatusDone {
		t.Errorf("job on degraded daemon settled as %s", done.Status)
	}
}

// TestResumedEnergyBitEqual: a job interrupted by shutdown and resumed on
// a restarted daemon lands on the bit-identical energy of an
// uninterrupted control run of the same spec — checkpoint capture and
// replay preserve the exact optimizer trajectory.
func TestResumedEnergyBitEqual(t *testing.T) {
	spec := `{"optimizer": {"method": "nelder-mead", "max_iter": 300}, "resilience": {"checkpoint_every": 1}}`

	// Control: the spec uninterrupted on a throwaway daemon.
	_, controlTS := newTestServer(t, Config{MaxConcurrent: 1})
	control := submitSpec(t, controlTS, spec)
	controlDone := pollDone(t, controlTS, control.ID, 60*time.Second)
	if controlDone.Status != StatusDone {
		t.Fatalf("control job settled as %s", controlDone.Status)
	}

	// Interrupted: shut the daemon down mid-run, restart on the same
	// spool, let recovery resume the job from its checkpoint.
	spool := t.TempDir()
	srv, err := New(Config{MaxConcurrent: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(runspecMustParse(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, job, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := job.snapshot(); st != StatusInterrupted {
		t.Fatalf("job at shutdown = %s, want interrupted", st)
	}

	srv2, err := New(Config{MaxConcurrent: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	})
	resumed := pollDone(t, ts2, job.ID, 120*time.Second)
	if resumed.Status != StatusDone || resumed.Result == nil {
		t.Fatalf("resumed job settled as %s (err=%q)", resumed.Status, resumed.Error)
	}

	want := math.Float64bits(controlDone.Result.Energy)
	got := math.Float64bits(resumed.Result.Energy)
	if want != got {
		t.Errorf("resumed energy %v (bits %x) != control %v (bits %x)",
			resumed.Result.Energy, got, controlDone.Result.Energy, want)
	}
}

func runspecMustParse(t *testing.T, s string) *runspec.RunSpec {
	t.Helper()
	spec, err := runspec.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// waitProgress blocks until the job has emitted n optimizer progress
// events (setup-phase heartbeats excluded — the point is to interrupt a
// run that demonstrably has checkpointable optimizer state).
func waitProgress(t *testing.T, job *family, n int) {
	t.Helper()
	replay, live := job.subscribe()
	defer job.unsubscribe(live)
	count := 0
	for _, e := range replay {
		if e.Type == "progress" && e.Phase != "setup" {
			count++
		}
	}
	deadline := time.After(30 * time.Second)
	for count < n {
		select {
		case e := <-live:
			if e.Type == "progress" && e.Phase != "setup" {
				count++
			}
		case <-deadline:
			t.Fatal("no optimizer progress before interruption")
		}
	}
}

// oldFormatJournal is a journal as the two-lifecycle daemon (PR 10) wrote
// it, op strings spelled out literally so the fixture keeps meaning what
// it meant then: all fourteen ops, across an in-flight job that had been
// picked up, retried and checkpointed, one job per terminal state, a
// family interrupted mid-curve with a done, a failed and a checkpointed
// point, and one family per terminal state. Journaled energies are values
// no solver returns, so a replayed point that re-ran would show.
func oldFormatJournal(t *testing.T, spool string) []journal.Record {
	t.Helper()
	pending := runspecMustParse(t, `{"optimizer": {"method": "nelder-mead", "max_iter": 50}}`)
	h2 := runspecMustParse(t, `{"molecule": {"kind": "h2"}}`)
	curve := func(values string) (json.RawMessage, string) {
		ss, err := runspec.ParseSweep([]byte(
			`{"base":{"molecule":{"kind":"h2"}},"axis":{"param":"distance","values":` + values + `}}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(ss)
		if err != nil {
			t.Fatal(err)
		}
		return raw, ss.Hash()
	}
	result := func(energy float64) json.RawMessage {
		return journalResult(&runspec.Result{Energy: energy, Exact: energy, Converged: true, EnergyEvaluations: 7})
	}
	midSpec, midHash := curve(`[0.5,0.7414,1.0,1.5]`)
	cancelledSpec, cancelledHash := curve(`[0.6,0.8,1.2]`)
	doneSpec, doneHash := curve(`[0.65,0.85]`)
	failedSpec, failedHash := curve(`[0.55,0.95]`)
	gone := filepath.Join(spool, "never-written.ckpt")
	return []journal.Record{
		{Op: "accepted", JobID: "job-000001", SpecHash: pending.Hash(), Spec: rawJSON(pending)},
		{Op: "running", JobID: "job-000001", SpecHash: pending.Hash(), Checkpoint: gone},
		{Op: "retrying", JobID: "job-000001", Attempt: 1, Error: "server: worker recovered a panic: boom", Checkpoint: gone},
		{Op: "running", JobID: "job-000001", SpecHash: pending.Hash(), Attempt: 1, Checkpoint: gone},
		{Op: "checkpointed", JobID: "job-000001", SpecHash: pending.Hash(), Checkpoint: gone},

		{Op: "accepted", JobID: "job-000002", SpecHash: h2.Hash(), Spec: rawJSON(h2)},
		{Op: "running", JobID: "job-000002", SpecHash: h2.Hash()},
		{Op: "done", JobID: "job-000002", SpecHash: h2.Hash(), Result: result(-1.25)},
		{Op: "accepted", JobID: "job-000003", SpecHash: "rs1:dead", Spec: rawJSON(&runspec.RunSpec{})},
		{Op: "failed", JobID: "job-000003", SpecHash: "rs1:dead", Error: "engine: no such backend"},
		{Op: "accepted", JobID: "job-000004", SpecHash: "rs1:beef", Spec: rawJSON(&runspec.RunSpec{})},
		{Op: "interrupted", JobID: "job-000004", SpecHash: "rs1:beef", Result: result(-0.75), Checkpoint: gone},

		{Op: "sweep_accepted", JobID: "sweep-000001", SpecHash: midHash, Spec: midSpec},
		{Op: "sweep_point_done", JobID: "sweep-000001", Point: 1, SpecHash: "rs1:p1", Result: result(-9.75)},
		{Op: "sweep_point_failed", JobID: "sweep-000001", Point: 2, SpecHash: "rs1:p2", Error: "interrupted before convergence"},
		{Op: "sweep_checkpoint", JobID: "sweep-000001", Point: 3, SpecHash: "rs1:p3", Checkpoint: gone},

		{Op: "sweep_accepted", JobID: "sweep-000002", SpecHash: cancelledHash, Spec: cancelledSpec},
		{Op: "sweep_point_done", JobID: "sweep-000002", Point: 1, SpecHash: "rs1:c1", Result: result(-8.5)},
		{Op: "sweep_cancelled", JobID: "sweep-000002", SpecHash: cancelledHash, Error: "server: sweep cancelled by client"},

		{Op: "sweep_accepted", JobID: "sweep-000003", SpecHash: doneHash, Spec: doneSpec},
		{Op: "sweep_point_done", JobID: "sweep-000003", Point: 2, SpecHash: "rs1:d2", Result: result(-7.5)},
		{Op: "sweep_point_done", JobID: "sweep-000003", Point: 1, SpecHash: "rs1:d1", Result: result(-7.25)},
		{Op: "sweep_done", JobID: "sweep-000003", SpecHash: doneHash},

		{Op: "sweep_accepted", JobID: "sweep-000004", SpecHash: failedHash, Spec: failedSpec},
		{Op: "sweep_point_done", JobID: "sweep-000004", Point: 1, SpecHash: "rs1:f1", Result: result(-6.5)},
		{Op: "sweep_point_failed", JobID: "sweep-000004", Point: 2, SpecHash: "rs1:f2", Error: "engine: no such backend"},
		{Op: "sweep_failed", JobID: "sweep-000004", SpecHash: failedHash, Error: "1 of 2 point(s) failed"},
	}
}

// TestOldFormatJournalReplays boots a daemon on oldFormatJournal and
// asserts the views it serves: terminal jobs and families answer with
// their journaled outcomes, the in-flight job keeps its consumed retry
// and runs to done, the mid-curve family keeps its settled points and
// runs only the open ones, and both id sequences continue past the
// replayed maxima.
func TestOldFormatJournalReplays(t *testing.T) {
	spool := t.TempDir()
	writeJournal(t, spool, oldFormatJournal(t, spool))
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool})

	// Replay forces a compaction before the fleet starts, and compaction
	// writes the one vocabulary: the old sweep ops and "running" are read,
	// never written back. The frames are decoded here by hand — the
	// journal's own reader would translate the old strings.
	wal, err := os.ReadFile(filepath.Join(spool, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]int{}
	for len(wal) >= 8 {
		n := int(binary.LittleEndian.Uint32(wal))
		if len(wal) < 8+n {
			break
		}
		var rec struct {
			Op    string `json:"op"`
			JobID string `json:"job_id"`
			Point int    `json:"point"`
		}
		if err := json.Unmarshal(wal[8:8+n], &rec); err != nil {
			t.Fatalf("compacted journal frame: %v", err)
		}
		onDisk[rec.Op]++
		onDisk[fmt.Sprintf("%s %s#%d", rec.Op, rec.JobID, rec.Point)]++
		wal = wal[8+n:]
	}
	for _, op := range []string{"accepted", "retrying", "done", "failed", "interrupted", "cancelled",
		"done sweep-000001#1", "failed sweep-000001#2", "done sweep-000003#0", "done job-000002#0"} {
		if onDisk[op] == 0 {
			t.Errorf("compacted journal lost its %q record(s): %v", op, onDisk)
		}
	}
	for op := range onDisk {
		if strings.HasPrefix(op, "sweep_") || strings.HasPrefix(op, "running") {
			t.Errorf("compacted journal still holds %q records", op)
		}
	}

	getJob := func(id string) View {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s: status %d err %v", id, resp.StatusCode, err)
		}
		return v
	}
	if v := getJob("job-000002"); v.Status != StatusDone || v.Result == nil || v.Result.Energy != -1.25 {
		t.Errorf("replayed done job %+v", v)
	}
	if v := getJob("job-000003"); v.Status != StatusFailed || v.Error != "engine: no such backend" || v.Result != nil {
		t.Errorf("replayed failed job %+v", v)
	}
	if v := getJob("job-000004"); v.Status != StatusInterrupted || v.Result == nil || v.Result.Energy != -0.75 ||
		v.CheckpointPath != filepath.Join(spool, "never-written.ckpt") {
		t.Errorf("replayed interrupted job %+v", v)
	}
	// The journaled done result re-seeds the cache under its spec hash.
	if hit := submitSpec(t, ts, `{"molecule": {"kind": "h2"}}`); hit.ID != "job-000005" || !hit.CacheHit ||
		hit.Result == nil || hit.Result.Energy != -1.25 {
		t.Errorf("resubmission of the replayed done spec %+v, want job-000005 served from cache", hit)
	}
	// In flight: re-enqueued (its journaled checkpoint never reached the
	// disk, so it cold-starts), one retry already spent.
	if v := pollDone(t, ts, "job-000001", 60*time.Second); v.Status != StatusDone || v.Result == nil || v.Attempt != 1 {
		t.Errorf("recovered in-flight job %+v, want done on attempt 1", v)
	}

	terminalSweeps := []struct {
		id                      string
		status                  Status
		errMsg                  string
		points, done, fail, cxl int
		curve                   []float64
	}{
		{"sweep-000002", StatusCancelled, "server: sweep cancelled by client", 3, 1, 0, 2, []float64{-8.5}},
		{"sweep-000003", StatusDone, "", 2, 2, 0, 0, []float64{-7.25, -7.5}},
		{"sweep-000004", StatusFailed, "1 of 2 point(s) failed", 2, 1, 1, 0, []float64{-6.5}},
	}
	for _, want := range terminalSweeps {
		v := pollSweepDone(t, ts, want.id, time.Second)
		if v.Status != want.status || v.Error != want.errMsg || v.Points != want.points ||
			v.Done != want.done || v.Failed != want.fail || v.Cancelled != want.cxl ||
			len(v.PointStates) != want.points || len(v.Curve) != len(want.curve) {
			t.Errorf("replayed %s: %+v", want.id, v)
			continue
		}
		for i, c := range v.Curve {
			if c.Energy != want.curve[i] || c.Evaluations != 7 {
				t.Errorf("%s curve[%d] = %+v, want journaled energy %v", want.id, i, c, want.curve[i])
			}
		}
	}

	// Mid-curve: point 1 keeps its journaled energy, point 2 stays failed,
	// points 3 and 4 run now; a family with a failed point settles failed.
	mid := pollSweepDone(t, ts, "sweep-000001", 60*time.Second)
	if mid.Status != StatusFailed || mid.Error != "1 of 4 point(s) failed" ||
		mid.Points != 4 || mid.Done != 3 || mid.Failed != 1 || len(mid.PointStates) != 4 {
		t.Fatalf("resumed mid-curve family %+v", mid)
	}
	if p := mid.PointStates[0]; p.Status != StatusDone || p.Energy != -9.75 {
		t.Errorf("journaled point re-ran or was lost: %+v", p)
	}
	if p := mid.PointStates[1]; p.Status != StatusFailed || p.Error != "interrupted before convergence" {
		t.Errorf("journaled failed point %+v", p)
	}
	for _, p := range mid.PointStates[2:] {
		if p.Status != StatusDone || p.Energy >= 0 || p.Energy == -9.75 {
			t.Errorf("open point %+v, want solved after the restart", p)
		}
	}

	ss, err := runspec.ParseSweep([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := srv.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	if sw.ID != "sweep-000005" {
		t.Errorf("post-recovery sweep ID = %s, want sweep-000005", sw.ID)
	}
}

// TestJournaledCalibrationKeyReplays: a journal written while
// backend.calibration was still a schema field can hold accepted specs
// that carry it. The strict parser no longer knows the key, so such a
// spec cannot be re-expanded: a terminal job still answers polls from
// its journaled outcome, and an open one settles failed through
// rebuild's no-recoverable-spec path instead of vanishing or running
// with the key silently dropped.
func TestJournaledCalibrationKeyReplays(t *testing.T) {
	spool := t.TempDir()
	spec := json.RawMessage(`{"molecule":{"kind":"h2"},"backend":{"calibration":"calib.json"}}`)
	done := journalResult(&runspec.Result{Energy: -1.25, Exact: -1.25, Converged: true, EnergyEvaluations: 7})
	writeJournal(t, spool, []journal.Record{
		{Op: "accepted", JobID: "job-000001", SpecHash: "rs1:aaaa", Spec: spec},
		{Op: "done", JobID: "job-000001", SpecHash: "rs1:aaaa", Result: done},
		{Op: "accepted", JobID: "job-000002", SpecHash: "rs1:aaaa", Spec: spec},
	})
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool})
	if v := pollDone(t, ts, "job-000001", time.Second); v.Status != StatusDone || v.Result == nil || v.Result.Energy != -1.25 {
		t.Errorf("terminal job with the old key %+v, want its journaled done result", v)
	}
	if v := pollDone(t, ts, "job-000002", time.Second); v.Status != StatusFailed ||
		!strings.Contains(v.Error, "no recoverable spec") {
		t.Errorf("open job with the old key %+v, want failed: no recoverable spec", v)
	}
}

// TestJournalAppendsPerOperation pins what an operation costs in durable
// appends: a job is its accepted record plus its terminal record, cache
// hit or not, and a cold N-point family is N point records between its
// accepted and terminal records.
func TestJournalAppendsPerOperation(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(func() { telemetry.Disable(); telemetry.Reset() })
	appends := telemetry.GetCounter("journal.appends")
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	// A poll can see the terminal status before settleFamily, which
	// publishes it first, has appended the terminal record: give the
	// count a moment to reach what is expected before reading it.
	var before int64
	since := func(want int64) int64 {
		for deadline := time.Now().Add(2 * time.Second); appends.Value()-before < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return appends.Value() - before
	}

	before = appends.Value()
	miss := submitSpec(t, ts, `{"molecule": {"kind": "h2"}}`)
	if v := pollDone(t, ts, miss.ID, 30*time.Second); v.Status != StatusDone || v.CacheHit {
		t.Fatalf("cold job %+v", v)
	}
	if got := since(2); got != 2 {
		t.Errorf("cache-miss job took %d appends, want 2", got)
	}

	before = appends.Value()
	if hit := submitSpec(t, ts, `{"molecule": {"kind": "h2"}}`); !hit.CacheHit {
		t.Fatalf("resubmission missed the cache: %+v", hit)
	}
	if got := since(2); got != 2 {
		t.Errorf("cache-hit job took %d appends, want 2", got)
	}

	before = appends.Value()
	v, _ := submitSweep(t, ts, sweepBody)
	if done := pollSweepDone(t, ts, v.ID, 60*time.Second); done.Status != StatusDone || done.CacheHits != 0 {
		t.Fatalf("cold family %+v", done)
	}
	if got := since(3 + 2); got != 3+2 {
		t.Errorf("cold 3-point family took %d appends, want 5", got)
	}
}

// TestShutdownKeepsAcknowledgedAdmissions: an admission that passed the
// draining gate is acknowledged, so its accepted record must reach the
// journal even when Shutdown runs while it is in flight — a drained worker
// fleet used to let Shutdown close the journal under it, and the restarted
// daemon answered 404 for an id it had handed out (or handed it out again).
func TestShutdownKeepsAcknowledgedAdmissions(t *testing.T) {
	for round := 0; round < 100; round++ {
		spool := t.TempDir()
		srv, err := New(Config{MaxConcurrent: 1, SimWorkers: 1, SpoolDir: spool, QueueDepth: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		// One settled job warms the result cache: later submissions of the
		// same spec settle inside admit, which is all journal writes.
		first, err := srv.Submit(&runspec.RunSpec{})
		if err != nil {
			t.Fatal(err)
		}
		<-first.done

		var mu sync.Mutex
		acked := []string{first.ID}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					f, err := srv.Submit(&runspec.RunSpec{})
					if err != nil {
						return // ErrShuttingDown
					}
					mu.Lock()
					acked = append(acked, f.ID)
					mu.Unlock()
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		again, err := New(Config{MaxConcurrent: 1, SimWorkers: 1, SpoolDir: spool})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, id := range acked {
			if seen[id] {
				t.Fatalf("round %d: id %s acknowledged twice", round, id)
			}
			seen[id] = true
			again.mu.Lock()
			_, known := again.families[id]
			again.mu.Unlock()
			if !known {
				t.Fatalf("round %d: %s was acknowledged before shutdown and is unknown after restart (%d acknowledged)",
					round, id, len(acked))
			}
		}
		if err := again.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionKeepsConcurrentAdmissions: a compaction snapshots the
// family table and then swaps the journal file. A family admitted in
// between used to have its accepted (and done) record written to the file
// the swap discards, so the restarted daemon had never heard of an id it
// had acknowledged — the drill's "lost" and "duplicate id" outcomes.
func TestCompactionKeepsConcurrentAdmissions(t *testing.T) {
	for round := 0; round < 5; round++ {
		spool := t.TempDir()
		srv, err := New(Config{MaxConcurrent: 1, SimWorkers: 1, SpoolDir: spool, QueueDepth: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		first, err := srv.Submit(&runspec.RunSpec{})
		if err != nil {
			t.Fatal(err)
		}
		<-first.done // the result cache now settles every resubmission inside admit

		var mu sync.Mutex
		acked := []string{first.ID}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					f, err := srv.Submit(&runspec.RunSpec{})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					acked = append(acked, f.ID)
					mu.Unlock()
				}
			}()
		}
		for i := 0; i < 20; i++ {
			time.Sleep(2 * time.Millisecond)
			srv.compactIfNeeded(true)
		}
		close(stop)
		wg.Wait()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}

		again, err := New(Config{MaxConcurrent: 1, SimWorkers: 1, SpoolDir: spool})
		if err != nil {
			t.Fatal(err)
		}
		missing := 0
		again.mu.Lock()
		for _, id := range acked {
			if _, known := again.families[id]; !known {
				missing++
			}
		}
		again.mu.Unlock()
		if missing > 0 {
			t.Errorf("round %d: %d of %d acknowledged ids unknown after restart", round, missing, len(acked))
		}
		if err := again.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
