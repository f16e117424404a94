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

// TestSettledFamilyFootprint bounds what a finished job keeps alive. The
// daemon retains every settled family (404-after-eviction is a wire
// decision it has not taken), so resident memory grows with jobs served
// and this number is its slope.
func TestSettledFamilyFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1000 H2 solves")
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
	run(0, 100) // warm: pools, telemetry rings, map buckets
	before := heap()
	run(100, 100+jobs)
	perJob := float64(heap()-before) / jobs
	t.Logf("live heap per settled job: %.0f bytes", perJob)
	if perJob > 2048 {
		t.Errorf("a settled job keeps %.0f bytes alive, want ≤ 2048", perJob)
	}
}
