package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/pauli"
	"repro/internal/resilience"
	"repro/internal/xacc"
)

// trippingBackend is a registry backend for the tests below: the state-
// vector accelerator, except that trip sees every Expectation call's
// ordinal — counted across retry attempts — first and may fail or panic.
type trippingBackend struct {
	xacc.SVAccelerator
	calls *atomic.Int64
	trip  func(call int64) error
}

func (b *trippingBackend) Expectation(ctx context.Context, prep *circuit.Circuit, obs *pauli.Op) (float64, error) {
	if err := b.trip(b.calls.Add(1)); err != nil {
		return 0, err
	}
	return b.SVAccelerator.Expectation(ctx, prep, obs)
}

// registerTripping installs a trippingBackend under name and returns a
// spec that runs H2 on it.
func registerTripping(t *testing.T, name string, trip func(call int64) error) string {
	t.Helper()
	calls := new(atomic.Int64)
	err := xacc.DefaultRegistry.Register(name, xacc.Entry{
		Factory: func(xacc.AcceleratorOptions) xacc.Accelerator {
			return &trippingBackend{calls: calls, trip: trip}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"optimizer":{"method":"nelder-mead","max_iter":60},"backend":{"accelerator":%q}}`, name)
}

// TestBackendPanicReachesIsolation: the VQE loop recovers nothing, so a
// panic inside a backend arrives at the scheduler's per-point isolation
// with the value it was raised with (no retry budget here, so the point
// settles on it).
func TestBackendPanicReachesIsolation(t *testing.T) {
	const fuse = "cluster backend blew fuse 7"
	spec := registerTripping(t, "test-panicking", func(call int64) error {
		if call == 5 {
			panic(fuse)
		}
		return nil
	})

	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	failed := pollDone(t, ts, submitSpec(t, ts, spec).ID, 60*time.Second)
	want := errJobPanicked.Error() + ": " + fuse
	if failed.Status != StatusFailed || !strings.HasSuffix(failed.Error, want) {
		t.Errorf("no budget: settled %s with %q, want failed ending in %q", failed.Status, failed.Error, want)
	}
}

// TestBackendFaultClassifiedThroughLoop: a backend error crosses the loop
// with its chain intact, so an exhausted-retries fault is re-run (and the
// re-run completes) while any other backend error is terminal.
func TestBackendFaultClassifiedThroughLoop(t *testing.T) {
	transient := registerTripping(t, "test-flaky", func(call int64) error {
		if call == 5 {
			return fmt.Errorf("rank 2 unreachable: %w", resilience.ErrRetriesExhausted)
		}
		return nil
	})
	terminal := registerTripping(t, "test-broken", func(call int64) error {
		if call == 5 {
			return fmt.Errorf("rank 2 misconfigured")
		}
		return nil
	})

	_, ts := newTestServer(t, Config{MaxConcurrent: 1, RetryBudget: 2})
	done := pollDone(t, ts, submitSpec(t, ts, transient).ID, 60*time.Second)
	if done.Status != StatusDone || done.Attempt != 1 {
		t.Errorf("transient fault: settled %s on attempt %d (%q), want done after one retry", done.Status, done.Attempt, done.Error)
	}
	failed := pollDone(t, ts, submitSpec(t, ts, terminal).ID, 60*time.Second)
	if failed.Status != StatusFailed || failed.Attempt != 0 || !strings.Contains(failed.Error, "rank 2 misconfigured") {
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
