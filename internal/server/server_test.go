package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/runspec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func submitSpec(t *testing.T, ts *httptest.Server, spec string) View {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, v.Status, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestEndToEndH2(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})

	v := submitSpec(t, ts, `{"molecule": {"kind": "h2"}}`)
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh submission status = %s", v.Status)
	}
	done := pollDone(t, ts, v.ID, 30*time.Second)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("job settled as %s (err=%q)", done.Status, done.Error)
	}
	if e := done.Result.Energy; e > -1.137 || e < -1.138 {
		t.Errorf("H2 energy = %v, want ≈ -1.1373 Ha", e)
	}
	if done.Result.SpecHash != v.SpecHash {
		t.Errorf("result hash %s != job hash %s", done.Result.SpecHash, v.SpecHash)
	}

	// The result endpoint serves the bare result once done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res runspec.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result endpoint: status %d err %v", resp.StatusCode, err)
	}
	if res.Energy != done.Result.Energy {
		t.Errorf("result endpoint energy mismatch")
	}
}

func TestAuxiliaryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/v1/capabilities", "/v1/metrics", "/v1/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !json.Valid(buf.Bytes()) {
			t.Errorf("%s: invalid JSON: %s", path, buf.String())
		}
	}
	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	var caps struct {
		Accelerators []struct{ Name string } `json:"accelerators"`
		KernelTuning map[string]any          `json:"kernel_tuning"`
	}
	err = json.NewDecoder(resp.Body).Decode(&caps)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range caps.Accelerators {
		if a.Name == "nwq-sv" {
			found = true
		}
	}
	if !found {
		t.Errorf("capabilities missing nwq-sv: %+v", caps)
	}
	// kernel_tuning keeps the keys clients saw before the thresholds
	// became constants, less the fusion cutoff and the per-term/batched
	// expectation cutoff that no longer exist.
	want := map[string]any{"source": "default", "gate_parallel": 16384.0, "reduce_parallel": 4096.0,
		"cluster_pool_min": 2048.0, "tile_bits": 11.0}
	if !reflect.DeepEqual(caps.KernelTuning, want) {
		t.Errorf("capabilities kernel_tuning = %v, want %v", caps.KernelTuning, want)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"molecule": {"kind": "benzene"}}`, // unknown molecule
		`{"optimiser": {}}`,                 // unknown field (typo)
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// TestSSEStream reads the event stream of one job end to end: lifecycle
// transitions plus at least one progress frame, ending in "done".
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submitSpec(t, ts, `{"optimizer": {"method": "nelder-mead", "max_iter": 60}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events[name]++
			if Status(name).Terminal() {
				break
			}
		}
	}
	if events["progress"] == 0 {
		t.Errorf("no progress events on stream: %v", events)
	}
	if events[string(StatusDone)] != 1 {
		t.Errorf("expected exactly one done event: %v", events)
	}
}

// TestConcurrentJobsWithCacheHits is the soak from the acceptance
// criteria: 32 concurrent submissions — half duplicates of an
// already-completed spec, half distinct — all settle, duplicates are
// served from cache with bit-identical energies, and the whole dance is
// race-clean under -race.
func TestConcurrentJobsWithCacheHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 64, SimWorkers: 2})

	// Prime the cache with one completed spec.
	primed := submitSpec(t, ts, `{"molecule": {"kind": "h2"}}`)
	primedDone := pollDone(t, ts, primed.ID, 30*time.Second)
	if primedDone.Status != StatusDone {
		t.Fatalf("priming job settled as %s", primedDone.Status)
	}

	const total = 32
	specs := make([]string, total)
	for i := range specs {
		if i%2 == 0 {
			// Duplicate of the primed spec (different inert field spelling,
			// same canonical hash) — must be served from cache.
			specs[i] = `{"molecule": {"kind": "H2"}, "shots": ` + fmt.Sprint(100+i) + `}`
		} else {
			// Distinct specs: different optimizer iteration caps hash apart.
			specs[i] = `{"optimizer": {"method": "nelder-mead", "max_iter": ` + fmt.Sprint(40+i) + `}}`
		}
	}
	views := make([]View, total)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = submitSpec(t, ts, specs[i])
		}(i)
	}
	wg.Wait()

	cacheHits := 0
	for i, v := range views {
		done := pollDone(t, ts, v.ID, 60*time.Second)
		if done.Status != StatusDone {
			t.Fatalf("job %d (%s) settled as %s: %s", i, v.ID, done.Status, done.Error)
		}
		if done.CacheHit {
			cacheHits++
			if done.Result.Energy != primedDone.Result.Energy {
				t.Errorf("job %d: cached energy %v != primed %v", i, done.Result.Energy, primedDone.Result.Energy)
			}
			if done.SpecHash != primed.SpecHash {
				t.Errorf("job %d: cache hit with foreign hash %s", i, done.SpecHash)
			}
		}
	}
	if cacheHits < total/2 {
		t.Errorf("cache hits = %d, want ≥ %d (every duplicate spec)", cacheHits, total/2)
	}
	if w := srv.Pool().Workers(); w != 2 {
		t.Errorf("shared pool width = %d, want 2", w)
	}
}

// TestQueueFull: admission control answers 503 instead of buffering
// unboundedly.
func TestQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	// Occupy the single worker and the single queue slot with slow jobs.
	// Water + L-BFGS: slow enough to pin the worker, yet it honors the
	// drain cancellation at the next iteration boundary during cleanup.
	slow := `{"molecule": {"kind": "water"}}`
	okCount, fullCount := 0, 0
	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slow))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		decodeErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			okCount++
		case http.StatusServiceUnavailable:
			fullCount++
			// Every rejection carries the wait quote, in the header and
			// in the envelope.
			if decodeErr != nil {
				t.Fatalf("503 body: %v", decodeErr)
			}
			if env.Error.Code != codeQueueFull {
				t.Errorf("503 code = %q, want %q", env.Error.Code, codeQueueFull)
			}
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
				t.Errorf("503 Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
			}
			if env.Error.RetryAfterMs <= 0 {
				t.Errorf("503 retry_after_ms = %d, want > 0", env.Error.RetryAfterMs)
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if fullCount == 0 {
		t.Errorf("no submission was rejected (accepted %d) — queue bound not enforced", okCount)
	}
	_ = srv
}

// TestShutdownCheckpointsInFlight: a graceful drain halts running
// optimizers at an iteration boundary, leaves a loadable checkpoint in
// the spool, journals a "checkpointed" record, and a daemon restarted on
// the same spool resumes the job from that checkpoint to completion.
func TestShutdownCheckpointsInFlight(t *testing.T) {
	spool := t.TempDir()
	srv, err := New(Config{MaxConcurrent: 1, SpoolDir: spool, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Water + L-BFGS emits a progress event every iteration (no simplex
	// warm-up) yet needs far more than the three iterations awaited below,
	// so the shutdown always interrupts it mid-run.
	spec := &runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "water"}}
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the optimizer has demonstrably made progress (setup-phase
	// heartbeats don't count — only iterations write checkpoints).
	waitProgress(t, job, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	status, result, errMsg := job.snapshot()
	if status != StatusInterrupted {
		t.Fatalf("job settled as %s (err=%q), want interrupted", status, errMsg)
	}
	if result == nil || !result.Interrupted {
		t.Fatalf("interrupted job missing best-so-far result: %+v", result)
	}

	ckpt := filepath.Join(spool, job.ID+".ckpt")
	var payload json.RawMessage
	kind, iter, err := resilience.LoadCheckpoint(ckpt, &payload)
	if err != nil {
		t.Fatalf("checkpoint not loadable: %v", err)
	}
	if kind != "vqe/lbfgs" || iter < 1 {
		t.Errorf("checkpoint kind = %q, iteration = %d", kind, iter)
	}

	// The drain leaves exactly that snapshot in the spool.
	if left, _ := filepath.Glob(filepath.Join(spool, "*.ckpt")); len(left) != 1 || left[0] != ckpt {
		t.Errorf("spool after the drain holds %v, want just %s", left, ckpt)
	}

	// No legacy manifest is written anymore; the journal carries the state.
	if _, err := os.Stat(filepath.Join(spool, "manifest.json")); !os.IsNotExist(err) {
		t.Errorf("legacy manifest.json written on shutdown (err=%v)", err)
	}

	// A drained server refuses new work.
	if _, err := srv.Submit(&runspec.RunSpec{}); err != ErrShuttingDown {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}

	// Restart on the same spool: the journal replays, the interrupted job
	// re-enqueues, resumes from the checkpoint, and runs to completion.
	srv2, err := New(Config{MaxConcurrent: 1, SpoolDir: spool, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	}()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resumed := pollDone(t, ts2, job.ID, 120*time.Second)
	if resumed.Status != StatusDone || resumed.Result == nil {
		t.Fatalf("resumed job settled as %s (err=%q)", resumed.Status, resumed.Error)
	}
	// A done job has nothing left to resume: its checkpoint is collected.
	if left, _ := filepath.Glob(filepath.Join(spool, "*.ckpt")); len(left) != 0 {
		t.Errorf("spool after the job settled done still holds %v", left)
	}
	// Variational sanity: the resumed optimization must end at or below
	// the mean-field reference (the synthetic model has no fixed scale).
	if resumed.Result.Energy > resumed.Result.HartreeFock+1e-9 {
		t.Errorf("resumed energy %v above Hartree-Fock %v",
			resumed.Result.Energy, resumed.Result.HartreeFock)
	}
}

// TestReadyzSplitsFromHealthz: a draining daemon stays live (healthz 200)
// but flips readiness to 503 so load balancers stop routing to it.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv, err := New(Config{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d err %v", resp.StatusCode, err)
	}
	if health.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", health.Status)
	}
}
