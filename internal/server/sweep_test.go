package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runspec"
)

func submitSweep(t *testing.T, ts *httptest.Server, body string) (SweepView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("submit sweep: status %d: %s", resp.StatusCode, buf.String())
	}
	var v SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v, resp.StatusCode
}

func pollSweepDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) SweepView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v SweepView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after %s", id, v.Status, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const sweepBody = `{"base":{"algorithm":"vqe","molecule":{"kind":"h2"}},"axis":{"param":"distance","values":[0.5,0.7414,1.5]}}`

// TestSweepEndToEnd: a three-point bond scan over HTTP runs to done with
// every point settled exactly once, the curve ascending by bond length,
// and every point after the first warm-started.
func TestSweepEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1})
	v, status := submitSweep(t, ts, sweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("fresh family acknowledged with %d, want 202", status)
	}
	if v.Points != 3 || !strings.HasPrefix(v.FamilyHash, runspec.SweepHashPrefix+":") {
		t.Fatalf("accepted view %+v", v)
	}

	done := pollSweepDone(t, ts, v.ID, 60*time.Second)
	if done.Status != StatusDone || done.Done != 3 || done.Failed != 0 {
		t.Fatalf("family settled %s: %+v", done.Status, done)
	}
	if len(done.PointStates) != 3 || len(done.Curve) != 3 {
		t.Fatalf("detail carries %d states / %d curve points, want 3/3",
			len(done.PointStates), len(done.Curve))
	}
	for i := 1; i < len(done.Curve); i++ {
		if done.Curve[i].Value <= done.Curve[i-1].Value {
			t.Errorf("curve not ascending: %+v", done.Curve)
		}
	}
	if done.WarmStarts != 2 {
		t.Errorf("warm starts = %d, want every point but the first", done.WarmStarts)
	}
	if done.EnergyEvaluations == 0 {
		t.Errorf("family reports zero optimizer work")
	}
	// The equilibrium geometry is the curve's minimum.
	for _, c := range done.Curve {
		if c.Energy < done.Curve[1].Energy-1e-9 {
			t.Errorf("R=%.4f below equilibrium: %+v", c.Value, done.Curve)
		}
	}
	// Point hashes are ordinary rs1 hashes.
	for _, p := range done.PointStates {
		if !strings.HasPrefix(p.SpecHash, runspec.HashPrefix+":") {
			t.Errorf("point %d hash %q", p.Point, p.SpecHash)
		}
	}
	// A family is a queue item like any other: a daemon that has served
	// nothing else still quotes Retry-After from its measured run time,
	// not the nominal second.
	if wait := srv.EstimateWait(); wait == time.Second || wait <= 0 {
		t.Errorf("wait estimate after a sweep = %s, want the family's measured run time", wait)
	}
}

// TestSweepWireShapeGolden pins the /v1/sweeps wire contract: submit and
// detail bodies must decode into the pinned shapes below with no unknown
// fields, so any accidental field rename or addition fails here before
// external clients break.
func TestSweepWireShapeGolden(t *testing.T) {
	type pinnedPoint struct {
		Point       int     `json:"point"`
		Value       float64 `json:"value"`
		SpecHash    string  `json:"spec_hash"`
		Status      string  `json:"status"`
		CacheHit    bool    `json:"cache_hit"`
		WarmStarted bool    `json:"warm_started"`
		Attempt     int     `json:"attempt"`
		Error       string  `json:"error"`
		Energy      float64 `json:"energy"`
	}
	type pinnedCurve struct {
		Value       float64 `json:"value"`
		Energy      float64 `json:"energy"`
		Exact       float64 `json:"exact"`
		Evaluations int     `json:"evaluations"`
	}
	type pinnedView struct {
		ID                string        `json:"id"`
		FamilyHash        string        `json:"family_hash"`
		Param             string        `json:"param"`
		Status            string        `json:"status"`
		Error             string        `json:"error"`
		Points            int           `json:"points"`
		Done              int           `json:"done"`
		Failed            int           `json:"failed"`
		Cancelled         int           `json:"cancelled"`
		CacheHits         int           `json:"cache_hits"`
		WarmStarts        int           `json:"warm_starts"`
		EnergyEvaluations int           `json:"energy_evaluations"`
		Submitted         time.Time     `json:"submitted"`
		Started           *time.Time    `json:"started"`
		Finished          *time.Time    `json:"finished"`
		PointStates       []pinnedPoint `json:"point_states"`
		Curve             []pinnedCurve `json:"curve"`
	}
	strict := func(t *testing.T, data []byte) pinnedView {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var v pinnedView
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("sweep view drifted from the pinned wire shape: %v\n%s", err, data)
		}
		return v
	}

	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	accepted := strict(t, body)
	if accepted.ID == "" || accepted.Points != 3 || accepted.Param != "distance" {
		t.Errorf("accepted view %+v", accepted)
	}

	pollSweepDone(t, ts, accepted.ID, 60*time.Second)
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	detail := strict(t, body)
	if detail.Status != "done" || len(detail.PointStates) != 3 || len(detail.Curve) != 3 {
		t.Errorf("detail view %+v", detail)
	}

	// The listing elides per-point detail but keeps the same envelope.
	resp, err = http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var list struct {
		Sweeps []pinnedView `json:"sweeps"`
	}
	if err := dec.Decode(&list); err != nil {
		t.Fatalf("sweep listing drifted: %v\n%s", err, body)
	}
	if len(list.Sweeps) != 1 || len(list.Sweeps[0].PointStates) != 0 {
		t.Errorf("listing %+v", list)
	}
}

// TestSweepSSEPointFrames reads a family's event stream end to end: one
// point_done frame per point (each strictly decodable, 1-based, carrying
// the axis value and converged energy) ending in a terminal done frame.
func TestSweepSSEPointFrames(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	v, _ := submitSweep(t, ts, sweepBody)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type pinnedFrame struct {
		Type      string  `json:"type"`
		Seq       int     `json:"seq"`
		Phase     string  `json:"phase"`
		Iteration int     `json:"iteration"`
		Energy    float64 `json:"energy"`
		Operator  string  `json:"operator"`
		Point     int     `json:"point"`
		Value     float64 `json:"value"`
		Error     string  `json:"error"`
	}
	var pointDone []pinnedFrame
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(data))
		dec.DisallowUnknownFields()
		var f pinnedFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("SSE frame drifted from the pinned shape: %v\n%s", err, data)
		}
		if f.Type == EventPointDone {
			pointDone = append(pointDone, f)
		}
		if Status(f.Type).Terminal() {
			terminal = f.Type
			break
		}
	}
	if terminal != string(StatusDone) {
		t.Fatalf("stream ended with %q, want done", terminal)
	}
	if len(pointDone) != 3 {
		t.Fatalf("%d point_done frames, want 3: %+v", len(pointDone), pointDone)
	}
	seen := map[int]bool{}
	for _, f := range pointDone {
		if f.Point < 1 || f.Point > 3 || seen[f.Point] {
			t.Errorf("point_done frame with bad or duplicate point: %+v", f)
		}
		seen[f.Point] = true
		if f.Value == 0 || f.Energy >= 0 {
			t.Errorf("point_done frame missing value/energy: %+v", f)
		}
	}
}

// TestErrorEnvelopeGolden pins the unified error envelope across the v1
// surface: every non-2xx body is {"error":{code,message,...}} with the
// documented code, no unknown fields.
func TestErrorEnvelopeGolden(t *testing.T) {
	type pinnedError struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMs int64  `json:"retry_after_ms"`
	}
	type pinnedEnvelope struct {
		Error pinnedError `json:"error"`
	}
	_, ts := newTestServer(t, Config{MaxSweepPoints: 2})

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"bad sweep json", "POST", "/v1/sweeps", `not json`, 400, "invalid_argument"},
		{"unknown sweep axis", "POST", "/v1/sweeps",
			`{"base":{},"axis":{"param":"bogus","values":[1]}}`, 400, "invalid_argument"},
		{"sweep over point cap", "POST", "/v1/sweeps",
			`{"base":{"molecule":{"kind":"h2"}},"axis":{"param":"distance","values":[0.5,0.6,0.7]}}`,
			400, "invalid_argument"},
		{"missing sweep", "GET", "/v1/sweeps/sweep-999999", "", 404, "not_found"},
		{"cancel missing sweep", "DELETE", "/v1/sweeps/sweep-999999", "", 404, "not_found"},
		{"bad job spec", "POST", "/v1/jobs", `{"optimiser": {}}`, 400, "invalid_argument"},
		{"missing job", "GET", "/v1/jobs/job-999999", "", 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var env pinnedEnvelope
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("body is not the error envelope: %v\n%s", err, body)
			}
			if env.Error.Code != tc.code || env.Error.Message == "" {
				t.Errorf("envelope %+v, want code %q with a message", env.Error, tc.code)
			}
		})
	}
}

// TestSweepCacheCrossover: point results and single-job submissions share
// the spec-hash cache in both directions — a finished job pre-settles the
// matching sweep point at admission, and a finished sweep point answers a
// later single-job submission as a cache hit.
func TestSweepCacheCrossover(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})

	// Job first: its result must pre-settle the matching family point.
	job := submitSpec(t, ts, `{"molecule":{"kind":"h2-distance","distance":0.7414}}`)
	jobDone := pollDone(t, ts, job.ID, 30*time.Second)
	if jobDone.Status != StatusDone {
		t.Fatalf("priming job settled as %s", jobDone.Status)
	}

	v, _ := submitSweep(t, ts,
		`{"base":{"molecule":{"kind":"h2"}},"axis":{"param":"distance","values":[0.7414,0.9]}}`)
	if v.CacheHits != 1 {
		t.Errorf("admission view cache hits = %d, want the primed point", v.CacheHits)
	}
	for _, p := range v.PointStates {
		if p.Value == 0.7414 && (!p.CacheHit || p.Status != StatusDone) {
			t.Errorf("primed point not pre-settled: %+v", p)
		}
	}
	done := pollSweepDone(t, ts, v.ID, 30*time.Second)
	if done.Status != StatusDone || done.Done != 2 {
		t.Fatalf("family settled %s: %+v", done.Status, done)
	}
	for _, c := range done.Curve {
		if c.Value == 0.7414 && c.Energy != jobDone.Result.Energy {
			t.Errorf("cached point energy %v != job energy %v", c.Energy, jobDone.Result.Energy)
		}
	}

	// Sweep first: the 0.9 point it ran now answers a single job from cache.
	echo := submitSpec(t, ts, `{"molecule":{"kind":"h2-distance","distance":0.9}}`)
	echoDone := pollDone(t, ts, echo.ID, 30*time.Second)
	if !echoDone.CacheHit {
		t.Errorf("single job after the sweep missed the cache: %+v", echoDone)
	}

	// An identical resubmission is fully cached: settled at admission with
	// a 200, never occupying a worker.
	again, status := submitSweep(t, ts,
		`{"base":{"molecule":{"kind":"h2"}},"axis":{"param":"distance","values":[0.7414,0.9]}}`)
	if status != http.StatusOK || again.Status != StatusDone || again.CacheHits != 2 {
		t.Errorf("resubmitted family: status %d view %+v, want settled 200 with 2 cache hits", status, again)
	}
}

// holdFirstPoint is a FaultHook that holds the first point to report
// progress, at its first sample, until that point's context ends: a
// running window that lasts exactly as long as a test needs it.
func holdFirstPoint() FaultHook {
	var once sync.Once
	return func(ctx context.Context, id string, p runspec.Progress) {
		once.Do(func() { <-ctx.Done() })
	}
}

// TestSweepCancel covers both cancellation windows: a family still queued
// settles immediately; a running family stops at the next point boundary,
// keeping finished points and cancelling the rest. Both leave every point
// terminal.
func TestSweepCancel(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, FaultHook: holdFirstPoint()})

	// Pin the single worker so the family stays queued: the hook holds
	// this job until shutdown cancels it.
	if _, err := srv.Submit(runspecMustParse(t, `{"molecule":{"kind":"h2"}}`)); err != nil {
		t.Fatal(err)
	}
	v, _ := submitSweep(t, ts, sweepBody)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled SweepView
	err = json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d err %v", resp.StatusCode, err)
	}
	if cancelled.Status != StatusCancelled || cancelled.Cancelled != 3 {
		t.Fatalf("queued family after DELETE: %+v", cancelled)
	}
	// Idempotent: a second DELETE answers the same terminal state.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("re-cancel status %d", resp.StatusCode)
	}

	// Running window: a fresh server, whose hook holds point 1 until the
	// DELETE cancels it, so the DELETE lands mid-family.
	_, ts2 := newTestServer(t, Config{MaxConcurrent: 1, FaultHook: holdFirstPoint()})
	running, _ := submitSweep(t, ts2,
		`{"base":{"molecule":{"kind":"h2"},"optimizer":{"method":"nelder-mead","max_iter":400}},"axis":{"param":"distance","values":[0.5,0.7414,1.5,2.0]}}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts2.URL + "/v1/sweeps/" + running.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur SweepView
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("family never started running: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ = http.NewRequest("DELETE", ts2.URL+"/v1/sweeps/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := pollSweepDone(t, ts2, running.ID, 30*time.Second)
	if final.Status != StatusCancelled {
		t.Fatalf("running family after DELETE settled %s", final.Status)
	}
	if got := final.Done + final.Failed + final.Cancelled; got != final.Points {
		t.Errorf("%d of %d points terminal after cancellation", got, final.Points)
	}
	if final.Cancelled == 0 {
		t.Errorf("no point records the cancellation: %+v", final)
	}
}

// TestSweepRecoveryResumesCurve is the durability contract: a daemon
// drained mid-family and restarted on the same spool re-enqueues the
// family, keeps every already-finished point (bit-identical energies, no
// re-run), and completes exactly the remainder — zero lost, zero
// duplicated points.
func TestSweepRecoveryResumesCurve(t *testing.T) {
	spool := t.TempDir()
	// The hook holds the second point to start until the drain cancels it,
	// so the drain lands after point 1 settled and before the family ends.
	var starts atomic.Int32
	hold := func(ctx context.Context, id string, p runspec.Progress) {
		if p.Phase == "setup" && p.Iteration == 0 && starts.Add(1) == 2 {
			<-ctx.Done()
		}
	}
	srv, err := New(Config{MaxConcurrent: 1, SpoolDir: spool, FaultHook: hold})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := runspec.ParseSweep([]byte(
		`{"base":{"molecule":{"kind":"h2"},"optimizer":{"method":"nelder-mead","max_iter":300}},"axis":{"param":"distance","values":[0.5,0.7414,1.0,1.5]}}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := srv.SubmitSweep(ss)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for at least one settled point, then drain mid-family.
	waitPointDone(t, sw, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	parked := sw.sweepView(true)
	if parked.Status != StatusInterrupted {
		t.Fatalf("family at shutdown = %s, want interrupted", parked.Status)
	}
	if parked.Done == 0 || parked.Done == parked.Points {
		t.Fatalf("drain landed outside the family (%d/%d done) — nothing to resume",
			parked.Done, parked.Points)
	}
	preDone := map[float64]float64{}
	for _, c := range parked.Curve {
		preDone[c.Value] = c.Energy
	}

	// Restart on the same spool: the journal replays the family.
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

	// The replayed view already carries every pre-drain point as done —
	// before the worker has had a chance to re-run anything.
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	var replayed SweepView
	err = json.NewDecoder(resp.Body).Decode(&replayed)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed family: status %d err %v", resp.StatusCode, err)
	}
	if replayed.Done < parked.Done {
		t.Fatalf("restart lost points: %d done before, %d after replay", parked.Done, replayed.Done)
	}

	final := pollSweepDone(t, ts2, sw.ID, 120*time.Second)
	if final.Status != StatusDone || final.Done != final.Points || final.Failed != 0 {
		t.Fatalf("resumed family settled %s: %+v", final.Status, final)
	}
	if len(final.PointStates) != final.Points {
		t.Fatalf("%d point states for %d points", len(final.PointStates), final.Points)
	}
	seen := map[int]bool{}
	for _, p := range final.PointStates {
		if seen[p.Point] {
			t.Errorf("point %d settled more than once", p.Point)
		}
		seen[p.Point] = true
	}
	// Pre-drain energies replay bit-identically: those points never re-ran.
	for _, c := range final.Curve {
		if pre, ok := preDone[c.Value]; ok && pre != c.Energy {
			t.Errorf("point %v re-ran across the restart: %v -> %v", c.Value, pre, c.Energy)
		}
	}
}

// waitPointDone blocks until the sweep has settled n points successfully.
func waitPointDone(t *testing.T, sw *family, n int) {
	t.Helper()
	replay, live := sw.subscribe()
	defer sw.unsubscribe(live)
	count := 0
	for _, e := range replay {
		if e.Type == EventPointDone {
			count++
		}
	}
	deadline := time.After(60 * time.Second)
	for count < n {
		select {
		case e := <-live:
			if e.Type == EventPointDone {
				count++
			}
		case <-deadline:
			t.Fatal("no point settled before the drain")
		}
	}
}
