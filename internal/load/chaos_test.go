package load

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runspec"
	"repro/internal/server"
)

// TestChaosDrillSurvivesRestarts runs the full drill in-process: load
// against a daemon with injected worker panics and stalls, restarted
// twice mid-run on the same spool and address. The gate must hold — no
// lost jobs, no duplicates, all energies bit-equal to local control runs.
// (The shell harness repeats this with real SIGKILLs; this test keeps the
// logic race-checked and CI-cheap.)
func TestChaosDrillSurvivesRestarts(t *testing.T) {
	spool := t.TempDir()
	hook, err := server.FaultHookFromEnv("seed=5,panic=0.08,stall=0.04,stall_ms=400,max=4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		MaxConcurrent: 2,
		SimWorkers:    2,
		SpoolDir:      spool,
		RetryBudget:   2,
		StallTimeout:  time.Second,
		FaultHook:     hook,
	}
	base, stop, err := StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(base, "http://")

	mix, err := runspec.MixByName(runspec.MixSmoke)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		rep *ChaosReport
		err error
	}
	drill := make(chan outcome, 1)
	go func() {
		rep, err := RunChaos(context.Background(), ChaosConfig{
			BaseURL:        base,
			Mix:            mix,
			Duration:       4 * time.Second,
			Concurrency:    3,
			Seed:           9,
			PollInterval:   10 * time.Millisecond,
			SubmitRetryGap: 50 * time.Millisecond,
			SettleTimeout:  60 * time.Second,
			Verify:         true,
		})
		drill <- outcome{rep, err}
	}()

	// Two restart cycles while the drill is generating load. The stop is
	// graceful (in-process code cannot SIGKILL itself); the shell harness
	// covers the hard-kill variant. The gap keeps the daemon down long
	// enough for the drill's health prober to witness the outage.
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(900 * time.Millisecond)
		if err := stop(); err != nil {
			t.Logf("restart cycle %d: stop: %v", cycle, err)
		}
		time.Sleep(300 * time.Millisecond)
		var restartErr error
		for try := 0; try < 20; try++ {
			_, stop, restartErr = StartLocalAt(addr, cfg)
			if restartErr == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if restartErr != nil {
			t.Fatalf("restart cycle %d: %v", cycle, restartErr)
		}
	}
	defer func() { _ = stop() }()

	res := <-drill
	if res.err != nil {
		t.Fatalf("chaos drill: %v", res.err)
	}
	rep := res.rep
	t.Logf("\n%s", rep.Table())
	if rep.Done == 0 {
		t.Fatalf("no jobs completed across restarts: %+v", rep)
	}
	if rep.RestartsObserved < 2 {
		t.Errorf("prober observed %d restarts, expected ≥ 2", rep.RestartsObserved)
	}
	if err := rep.Gate(2); err != nil {
		t.Errorf("chaos gate failed: %v", err)
	}
	if rep.ControlChecked == 0 {
		t.Error("verification ran no control checks")
	}
}

// TestChaosTellsLostFromEvicted: a 404 for an acknowledged job reads as
// "lost", a 410 as "evicted", each counted apart, and the gate fails on
// either.
func TestChaosTellsLostFromEvicted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/job-000001":
			w.WriteHeader(http.StatusNotFound)
		case "/v1/jobs/job-000002", "/v1/sweeps/sweep-000001":
			w.WriteHeader(http.StatusGone)
		}
	}))
	defer ts.Close()
	client := NewClient(ts.URL)
	cfg := ChaosConfig{BaseURL: ts.URL, Mix: &runspec.Mix{}, Duration: time.Second}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	jobs := []ChaosJob{{JobID: "job-000001"}, {JobID: "job-000002"}, {JobID: "job-000003", Status: "done"}}
	for i := range jobs[:2] {
		chaosSettle(context.Background(), client, cfg, &jobs[i])
	}
	if jobs[0].Status != "lost" || jobs[1].Status != "evicted" {
		t.Fatalf("404 settled as %q and 410 as %q, want lost and evicted", jobs[0].Status, jobs[1].Status)
	}
	if _, err := client.Sweep(context.Background(), "sweep-000001"); !errors.Is(err, ErrSweepEvicted) {
		t.Errorf("410 on a sweep: %v, want ErrSweepEvicted", err)
	}
	rep := buildChaosReport(jobs, cfg)
	if rep.Lost != 1 || rep.Evicted != 1 || rep.Done != 1 {
		t.Fatalf("report counts lost=%d evicted=%d done=%d, want 1 each", rep.Lost, rep.Evicted, rep.Done)
	}
	err := rep.Gate(0)
	if err == nil || !strings.Contains(err.Error(), "LOST") || !strings.Contains(err.Error(), "evicted") {
		t.Errorf("gate: %v, want it to fail on both the lost and the evicted job", err)
	}
}
