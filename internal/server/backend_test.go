package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runspec"
)

// TestBackendPanicReachesIsolation: the VQE loop recovers nothing, so a
// panic raised inside a backend run's optimizer loop (here by the fault
// hook, on the fifth progress sample) arrives at the scheduler's per-point
// isolation with the value it was raised with (no retry budget here, so
// the point settles on it).
func TestBackendPanicReachesIsolation(t *testing.T) {
	const fuse = "cluster backend blew fuse 7"
	var samples atomic.Int64
	hook := func(ctx context.Context, id string, p runspec.Progress) {
		if samples.Add(1) == 5 {
			panic(fuse)
		}
	}

	_, ts := newTestServer(t, Config{MaxConcurrent: 1, FaultHook: hook})
	spec := `{"optimizer":{"method":"nelder-mead","max_iter":60},"backend":{"accelerator":"nwq-sv-serial"}}`
	failed := pollDone(t, ts, submitSpec(t, ts, spec).ID, 60*time.Second)
	want := errJobPanicked.Error() + ": " + fuse
	if failed.Status != StatusFailed || !strings.HasSuffix(failed.Error, want) {
		t.Errorf("no budget: settled %s with %q, want failed ending in %q", failed.Status, failed.Error, want)
	}
}

// TestBackendFaultClassifiedThroughLoop: a backend error crosses the loop
// with its chain intact. A cluster whose every transfer drops under a
// seeded fault drill (retries exhausted) settles on its first attempt,
// since a retry would rebuild the same injector and fail alike, and so
// does a spec no backend run can serve (14 qubits on the 12-qubit density
// matrix).
func TestBackendFaultClassifiedThroughLoop(t *testing.T) {
	const transient = `{"optimizer":{"method":"nelder-mead","max_iter":60},` +
		`"backend":{"accelerator":"nwq-cluster","fault":{"seed":3,"drop_prob":1}}}`
	const terminal = `{"molecule":{"kind":"hubbard","sites":7},"optimizer":{"method":"nelder-mead"},` +
		`"backend":{"accelerator":"nwq-dm"}}`

	_, ts := newTestServer(t, Config{MaxConcurrent: 1, RetryBudget: 1})
	// A seeded drill fails every attempt alike: it settles without a retry.
	drilled := pollDone(t, ts, submitSpec(t, ts, transient).ID, 60*time.Second)
	if drilled.Status != StatusFailed || drilled.Attempt != 0 ||
		strings.Contains(drilled.Error, "retry budget exhausted") || !strings.Contains(drilled.Error, "retries exhausted") {
		t.Errorf("seeded fault drill: settled %s on attempt %d (%q), want failed without a retry", drilled.Status, drilled.Attempt, drilled.Error)
	}
	failed := pollDone(t, ts, submitSpec(t, ts, terminal).ID, 60*time.Second)
	if failed.Status != StatusFailed || failed.Attempt != 0 || !strings.Contains(failed.Error, "exceed backend") {
		t.Errorf("terminal fault: settled %s on attempt %d (%q), want failed without a retry", failed.Status, failed.Attempt, failed.Error)
	}
}

// TestCalibrationRejectedAtAdmission: backend.calibration (once a
// client-named profile path the daemon would open and install as
// process-wide kernel thresholds) is no longer in the schema, so the
// strict Parse/ParseSweep answer 400 on both admission routes like any
// unknown key, and acknowledge nothing.
func TestCalibrationRejectedAtAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, body := range map[string]string{
		"/v1/jobs":   `{"backend":{"calibration":"/etc/passwd"}}`,
		"/v1/sweeps": `{"base":{"backend":{"calibration":"/etc/passwd"}},"axis":{"param":"distance","values":[0.7,0.8]}}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != codeInvalidArgument ||
			!strings.Contains(env.Error.Message, "calibration") {
			t.Errorf("POST %s: status %d, envelope %+v; want 400 %s naming calibration", path, resp.StatusCode, env.Error, codeInvalidArgument)
		}
		list, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		listing, _ := io.ReadAll(list.Body)
		list.Body.Close()
		if strings.Contains(string(listing), `"id"`) {
			t.Errorf("GET %s after the rejection lists a family: %s", path, listing)
		}
	}
}
