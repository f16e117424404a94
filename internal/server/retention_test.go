package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/telemetry"
)

// snapshotWrites counts resilience checkpoint writes while run runs.
func snapshotWrites(t *testing.T, run func()) int64 {
	t.Helper()
	telemetry.Enable()
	t.Cleanup(func() { telemetry.Disable(); telemetry.Reset() })
	writes := telemetry.GetCounter("resilience.checkpoint.writes")
	before := writes.Value()
	run()
	return writes.Value() - before
}

// TestServedSweepWritesNoSnapshots: a point of a served 33-point Hubbard
// family (the serve_sweep benchmark's shape) ends well within
// servedCheckpointGap, so the family writes no snapshot at all.
func TestServedSweepWritesNoSnapshots(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	var done SweepView
	writes := snapshotWrites(t, func() {
		v, _ := submitSweep(t, ts, `{"base":{"molecule":{"kind":"hubbard","sites":3,"electrons":2,"t":1}},`+
			`"axis":{"param":"repulsion","start":0.5,"stop":8.5,"step":0.25}}`)
		done = pollSweepDone(t, ts, v.ID, 60*time.Second)
	})
	if done.Status != StatusDone || done.Done != 33 {
		t.Fatalf("family settled %s with %d of %d points done", done.Status, done.Done, done.Points)
	}
	if writes != 0 {
		t.Errorf("a served sweep family wrote %d snapshots, want 0", writes)
	}
}

// TestNamedCadenceSnapshotsEveryIteration: a spec that names its cadence
// gets exactly that cadence when served; checkpoint_every 1 still writes
// one snapshot per optimizer iteration.
func TestNamedCadenceSnapshotsEveryIteration(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxConcurrent: 1})
	var job *family
	writes := snapshotWrites(t, func() {
		var err error
		job, err = srv.Submit(runspecMustParse(t, `{"molecule":{"kind":"h2"},"resilience":{"checkpoint_every":1}}`))
		if err != nil {
			t.Fatal(err)
		}
		<-job.done
	})
	if st, _, msg := job.snapshot(); st != StatusDone {
		t.Fatalf("job settled %s: %s", st, msg)
	}
	replay, live := job.subscribe()
	job.unsubscribe(live)
	iterations := int64(0)
	for _, e := range replay {
		if e.Type == "progress" && e.Phase == runspec.AlgorithmVQE {
			iterations++
		}
	}
	if iterations == 0 || writes != iterations {
		t.Errorf("%d snapshots for %d optimizer iterations, want one per iteration", writes, iterations)
	}
}

// getStatus issues a GET and returns the status code and body.
func getStatus(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// retained lists one view's table: its ids in listing order and the
// points they hold.
func retained(srv *Server, kind string) (ids []string, points int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ids = append(ids, srv.order[kind]...)
	for _, id := range ids {
		points += len(srv.families[id].points)
	}
	return ids, points
}

// TestSettledBudget: past settledBudget settled points a view evicts its
// oldest settled families, deleting a halted job's snapshot with it. An
// evicted id answers 410 evicted, an id never issued 404, and a restart
// on the compacted journal keeps both the bound and the id sequence.
func TestSettledBudget(t *testing.T) {
	spool := t.TempDir()
	// The hook outlasts the walltime inside the first optimizer iteration
	// of the first job, which then halts with a snapshot: a halted job.
	var once sync.Once
	hook := func(ctx context.Context, id string, p runspec.Progress) {
		if p.Phase == runspec.AlgorithmVQE {
			once.Do(func() { time.Sleep(700 * time.Millisecond) })
		}
	}
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool, FaultHook: hook})

	halted, err := srv.Submit(runspecMustParse(t, `{"molecule":{"kind":"h2"},"resilience":{"walltime":"1s"}}`))
	if err != nil {
		t.Fatal(err)
	}
	<-halted.done
	hv := halted.jobView(false)
	if hv.Status != StatusInterrupted || !fileExists(hv.CheckpointPath) {
		t.Fatalf("walltime job settled %s with checkpoint %q, want a halted job with a snapshot", hv.Status, hv.CheckpointPath)
	}

	// One solve, then settledBudget resubmissions answered from the cache
	// at admission: settledBudget+2 settled jobs in all.
	spec := runspecMustParse(t, `{"molecule":{"kind":"h2-distance","distance":0.9}}`)
	var last *family
	for i := 0; i <= settledBudget; i++ {
		if last, err = srv.Submit(spec); err != nil {
			t.Fatal(err)
		}
		<-last.done
	}
	ids, _ := retained(srv, kindJob)
	if len(ids) != settledBudget || ids[len(ids)-1] != last.ID {
		t.Fatalf("jobs view retains %d ids ending %s, want the newest %d ending %s",
			len(ids), ids[len(ids)-1], settledBudget, last.ID)
	}
	if fileExists(hv.CheckpointPath) {
		t.Errorf("evicting the halted job left its snapshot %s in the spool", hv.CheckpointPath)
	}

	type pinnedEnvelope struct {
		Error struct {
			Code         string `json:"code"`
			Message      string `json:"message"`
			RetryAfterMs int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	wantCode := func(t *testing.T, path string, status int, code string) {
		t.Helper()
		got, body := getStatus(t, ts, path)
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var env pinnedEnvelope
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("GET %s: body is not the error envelope: %v\n%s", path, err, body)
		}
		if got != status || env.Error.Code != code || env.Error.Message == "" {
			t.Errorf("GET %s: %d %+v, want %d %q", path, got, env.Error, status, code)
		}
	}
	for _, path := range []string{"/v1/jobs/" + halted.ID, "/v1/jobs/job-000002", "/v1/jobs/job-000002/result", "/v1/jobs/job-000002/events"} {
		wantCode(t, path, http.StatusGone, codeEvicted)
	}
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-2", "/v1/jobs/nonsense", "/v1/sweeps/job-000002", "/v1/sweeps/sweep-000001"} {
		wantCode(t, path, http.StatusNotFound, codeNotFound)
	}
	if got, _ := getStatus(t, ts, "/v1/jobs/"+ids[0]); got != http.StatusOK {
		t.Errorf("GET the oldest retained job %s: %d, want 200", ids[0], got)
	}

	// The sweeps view keeps its own budget: a three-point family once,
	// then answered from the cache until its points pass the budget.
	sweep, err := runspec.ParseSweep([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= settledBudget/3; i++ {
		f, err := srv.SubmitSweep(sweep)
		if err != nil {
			t.Fatal(err)
		}
		<-f.done
	}
	sweeps, points := retained(srv, kindSweep)
	if points > settledBudget || len(sweeps) != settledBudget/3 {
		t.Errorf("sweeps view retains %d families of %d points, want the newest %d within %d points",
			len(sweeps), points, settledBudget/3, settledBudget)
	}
	wantCode(t, "/v1/sweeps/sweep-000001", http.StatusGone, codeEvicted)
	if ids, _ := retained(srv, kindJob); len(ids) != settledBudget {
		t.Errorf("sweeps evicted jobs: %d jobs retained", len(ids))
	}

	// Restart on the compacted journal: the bound holds, the evicted ids
	// still answer 410, and the next id is above every id issued before.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool})
	if ids, _ := retained(srv2, kindJob); len(ids) != settledBudget || ids[len(ids)-1] != last.ID {
		t.Errorf("restart retains %d jobs, want the same %d ending %s", len(ids), settledBudget, last.ID)
	}
	ts = ts2
	wantCode(t, "/v1/jobs/"+halted.ID, http.StatusGone, codeEvicted)
	next, err := srv2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("job-%06d", seqOf(kindJob, last.ID)+1); next.ID != want {
		t.Errorf("first id after the restart %s, want %s", next.ID, want)
	}
	if left, _ := filepath.Glob(filepath.Join(spool, "*.ckpt")); len(left) != 0 {
		t.Errorf("spool still holds %v", left)
	}
}

// TestEvictionFollowsSettlement: a family that runs while hundreds of
// younger ones settle is still retained when it settles itself — eviction
// goes by settlement, not by id — and a restart on the compacted journal
// keeps that order.
func TestEvictionFollowsSettlement(t *testing.T) {
	spool := t.TempDir()
	release := make(chan struct{})
	hold := func(ctx context.Context, id string, p runspec.Progress) {
		if id == "job-000001" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, SpoolDir: spool, FaultHook: hold})
	long, err := srv.Submit(runspecMustParse(t, `{"molecule":{"kind":"h2"}}`))
	if err != nil {
		t.Fatal(err)
	}
	spec := runspecMustParse(t, `{"molecule":{"kind":"h2-distance","distance":0.9}}`)
	for i := 0; i < settledBudget+8; i++ {
		f, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-f.done
	}
	close(release)
	<-long.done
	check := func(ts *httptest.Server) {
		t.Helper()
		if got, body := getStatus(t, ts, "/v1/jobs/"+long.ID); got != http.StatusOK {
			t.Errorf("GET %s, settled last with the oldest id: %d %s, want 200", long.ID, got, body)
		}
		if got, _ := getStatus(t, ts, "/v1/jobs/job-000002"); got != http.StatusGone {
			t.Errorf("GET job-000002, settled first: %d, want 410", got)
		}
	}
	check(ts)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{MaxConcurrent: 1, SpoolDir: spool})
	check(ts2)
}

// TestEvictionKeepsHighestID: the view's highest id survives eviction
// even when it settled first and everything after it was older, so a
// compaction never drops the id the sequence restarts from.
func TestEvictionKeepsHighestID(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	fams := make([]*family, settledBudget+2)
	srv.mu.Lock()
	for i := range fams {
		f := newFamily("", nil, soloPoints(&runspec.RunSpec{}))
		f.status, f.points[0].status = StatusDone, StatusDone
		srv.seq[kindJob]++
		f.ID = fmt.Sprintf("%s-%06d", kindJob, srv.seq[kindJob])
		srv.register(f)
		fams[i] = f
	}
	srv.mu.Unlock()
	highest := fams[len(fams)-1]
	srv.retire(highest)
	for _, f := range fams[:len(fams)-1] {
		srv.retire(f)
	}
	ids, _ := retained(srv, kindJob)
	if len(ids) != settledBudget || ids[len(ids)-1] != highest.ID || ids[0] != fams[2].ID {
		t.Errorf("retained %d ids %s..%s, want %d from %s to the highest %s",
			len(ids), ids[0], ids[len(ids)-1], settledBudget, fams[2].ID, highest.ID)
	}
}
