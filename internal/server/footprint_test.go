package server

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/runspec"
)

// TestStoredEventRoundTrip: the compact replay form is lossless for every
// field an Event can carry, including a Type or Phase the intern table
// has never heard of.
func TestStoredEventRoundTrip(t *testing.T) {
	for _, e := range []Event{
		{Type: "queued", Seq: 1},
		{Type: "progress", Seq: 7, Phase: "vqe", Iteration: 41, Energy: -1.137},
		{Type: "progress", Seq: 8, Phase: "adapt", Iteration: 3, Energy: 1.25, Operator: "d(6,7->8,9)", Point: 2, Value: 0.75},
		{Type: "progress", Seq: 9, Phase: "setup"},
		{Type: EventRetrying, Seq: 10, Error: "stall: no progress"},
		{Type: EventPointDone, Seq: 11, Point: 33, Value: 2.5, Energy: -3.5},
		{Type: "failed", Seq: 12, Error: "boom"},
		{Type: "a-type-from-the-future", Seq: 13, Phase: "a-phase-from-the-future"},
	} {
		if got := compactEvent(e).expand(); !reflect.DeepEqual(got, e) {
			t.Errorf("round trip changed the event:\n got %+v\nwant %+v", got, e)
		}
	}
}

// TestSettledFamilyFootprint: once the jobs view holds settledBudget
// settled jobs, each newly settled job evicts the oldest, so live heap is
// flat in jobs served rather than a per-job slope (1 896 bytes a job, on
// an H2 job, while the daemon retained every settled family).
func TestSettledFamilyFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1600 H2 solves")
	}
	srv, _ := newTestServer(t, Config{MaxConcurrent: 2, SimWorkers: 1, QueueDepth: 64})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run := func(lo, hi int) {
		var fams []*family
		for i := lo; i < hi; i++ {
			spec := &runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "h2-distance", Distance: 0.5 + 0.001*float64(i)}}
			for {
				f, err := srv.Submit(spec)
				if err == ErrQueueFull {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				fams = append(fams, f)
				break
			}
		}
		for _, f := range fams {
			<-f.done
			if st, _, msg := f.snapshot(); st != StatusDone {
				t.Fatalf("%s settled %s: %s", f.ID, st, msg)
			}
		}
	}
	const jobs = 1000
	run(0, 100+settledBudget) // warm-up (pools, telemetry rings, map buckets) and a full table
	before := heap()
	run(100+settledBudget, 100+settledBudget+jobs)
	after := heap()
	perJob := (float64(after) - float64(before)) / jobs
	t.Logf("live heap %d → %d bytes over %d jobs past the budget: %.0f bytes per job", before, after, jobs, perJob)
	if perJob > 128 {
		t.Errorf("live heap grows %.0f bytes per settled job past the budget, want flat (≤ 128)", perJob)
	}
	srv.mu.Lock()
	retained := len(srv.order[kindJob])
	srv.mu.Unlock()
	if retained != settledBudget {
		t.Errorf("the jobs view retains %d settled jobs, want the budget of %d", retained, settledBudget)
	}
}
