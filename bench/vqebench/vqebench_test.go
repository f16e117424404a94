package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/bench/probe"
	"repro/internal/server"
)

func TestMixGeneratorIsDeterministicAndStratified(t *testing.T) {
	a, b, other := newMixGen(7), newMixGen(7), newMixGen(8)
	const n = mixWarm + 3*mixBlock
	differs := false
	for i := 0; i < n; i++ {
		x, y := a.op(i), b.op(i)
		if x != y {
			t.Fatalf("op %d differs between two generators of one seed:\n%+v\n%+v", i, x, y)
		}
		if x.Body != other.op(i).Body {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generate the same bodies")
	}
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		op := a.op(i)
		if i < mixWarm && op.Ref >= 0 {
			t.Errorf("warm-up op %d is a hit", i)
		}
		if op.Ref < 0 {
			if first, dup := seen[op.Body]; dup {
				t.Errorf("fresh op %d repeats the spec of op %d", i, first)
			}
			seen[op.Body] = i
			continue
		}
		ref := a.op(op.Ref)
		if ref.Ref >= 0 || ref.Body != op.Body || op.Ref > i-hitLag {
			t.Errorf("hit %d refers to op %d (%+v)", i, op.Ref, ref)
		}
		fresher := 0
		for j := op.Ref + 1; j < i; j++ {
			if a.op(j).Ref < 0 {
				fresher++
			}
		}
		if fresher >= hitWindow+hitLag {
			t.Errorf("hit %d reaches %d fresh specs back, beyond the window", i, fresher)
		}
	}
	for blk := 0; blk < 3; blk++ {
		count := map[string]int{}
		for i := 0; i < mixBlock; i++ {
			count[a.op(mixWarm+blk*mixBlock+i).Class]++
		}
		if count["hit"] != mixHits {
			t.Errorf("block %d has %d hits, want %d", blk, count["hit"], mixHits)
		}
		for _, c := range mixClasses {
			if count[c.name] != c.count {
				t.Errorf("block %d has %d %s specs, want %d", blk, count[c.name], c.name, c.count)
			}
		}
	}
}

func TestFamilyAndThetaGenerators(t *testing.T) {
	if familyBody(3, 5) != familyBody(3, 5) || familyBody(3, 5) == familyBody(3, 6) || familyBody(3, 5) == familyBody(4, 5) {
		t.Error("family bodies must depend on exactly (seed, k)")
	}
	x, y := wideTheta(3, 0, wideParams), wideTheta(3, 0, wideParams)
	for i := range x {
		if x[i] != y[i] || math.Abs(x[i]) > math.Pi {
			t.Fatalf("θ[%d] = %g, %g", i, x[i], y[i])
		}
	}
	if z := wideTheta(3, 1, wideParams); z[0] == x[0] {
		t.Error("runs 0 and 1 of a seed share a start vector")
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {1600, 99, true}, {10000, 99.9, true}} {
		p, ok := highestTail(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("highestTail(%d) = p%g, %v; want p%g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if got := probe.Percentile(v, 95); got != 10 {
		t.Errorf("p95 of ten samples = %g, want the maximum", got)
	}
	if got := probe.Median(v); got != 5.5 {
		t.Errorf("probe.Median(1..10) = %g", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "b", Parent: 1, Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Name: "c", Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Name: "d", Parent: 2, Start: 12, End: 18},  // grandchild: a's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestClosureRemainder(t *testing.T) {
	if got := probe.Unattributed(10, 1, 6, 2); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributed share = %g, want 0.1", got)
	}
	if got := probe.Unattributed(0, 1, 1, 1); got != 0 {
		t.Errorf("unattributed share of nothing = %g, want 0", got)
	}
}

// update rewrites BENCHMARK.json from the tables in metrics.go:
//
//	cd bench && go test ./vqebench -run Manifest -update
var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the metric and workload tables")

// manifestJSON renders BENCHMARK.json from the tables in metrics.go and
// workload.go, so the file at the repository root cannot drift from what
// the program reports.
func manifestJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []endJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, endJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, []byte(manifestJSON()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if strings.TrimSpace(string(data)) != manifestJSON() {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `go test ./vqebench -run Manifest -update`")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("%s (%s) exceeds the contract's name or unit length", d.name, d.unit)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, over 200", w.name, len(w.why))
		}
	}
}

// inProcessDaemon serves the real handler from inside the test binary, so
// the serving workloads run without building vqed.
func inProcessDaemon(_ context.Context, spool string) (*daemon, error) {
	start := time.Now()
	srv, err := server.New(server.Config{MaxConcurrent: 2, SimWorkers: 2, QueueDepth: 64, CacheCapacity: 256, SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{base: ts.URL, spool: spool, bootMs: float64(time.Since(start)) / 1e6, halt: func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	}}, nil
}

func tinyConfig(t *testing.T) config {
	return config{seed: 5, seconds: 0.2, tmp: t.TempDir(), probe: probe.Env{Reps: 3, Budget: 100 * time.Millisecond}, setUps: 1}
}

// tiny versions of the four workloads: same code, test-only scale.
func tinyWorkloads() []workloadInfo {
	return []workloadInfo{
		{name: "adapt12", unit: "solves", new: func(c config) workload {
			w := newAdapt12(c)
			w.body = `{"molecule":{"kind":"hubbard","sites":3,"electrons":2},"algorithm":"adapt","adapt":{"max_iterations":2}}`
			w.warmBody, w.wantSteps, w.tol = w.body, 2, 2
			return w
		}},
		{name: "wide20", unit: "evals", new: func(c config) workload {
			w := newWide20(c)
			w.body = strings.Replace(wideBody, `"sites":10`, `"sites":6`, 1)
			w.params = 48
			return w
		}},
		{name: "serve_mix", unit: "jobs", new: func(c config) workload {
			w := newServeMix(c)
			w.start = inProcessDaemon
			return w
		}},
		{name: "serve_sweep", unit: "points", new: func(c config) workload {
			w := newServeSweep(c)
			w.start = inProcessDaemon
			w.points = 3
			w.body = func(seed uint64, k int) string { return sweepBody(seed, k, 4) }
			return w
		}},
	}
}

func TestEveryWorkloadAtTinyScale(t *testing.T) {
	for _, info := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			if traced && (info.name == "wide20" || info.name == "serve_sweep") && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/traced=%v", info.name, traced), func(t *testing.T) {
				cfg, outDir := tinyConfig(t), t.TempDir()
				res, err := runWorkload(context.Background(), cfg, info, traced, outDir, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (present %v)", d.name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must never be 0", d.name, m.Value)
					}
				}
				if traced {
					if res.Metrics["vqe.energy_ms"].Value <= 0 || res.Metrics["journal.append_p50_us"].Value <= 0 {
						t.Error("layer probes reported no time")
					}
					if strings.HasPrefix(info.name, "serve") && res.Metrics["server.run_p50_ms"].Value <= 0 {
						t.Error("no server.run spans joined from the views")
					}
					var tf traceFile
					data, err := os.ReadFile(filepath.Join(outDir, "trace_"+info.name+".json"))
					if err == nil {
						err = json.Unmarshal(data, &tf)
					}
					if err != nil {
						t.Fatal(err)
					}
					for _, name := range []string{"probe.vqe.energy", "probe.state.exec_fused", "probe.journal.append"} {
						if tf.SelfMs[name] <= 0 {
							t.Errorf("the trace holds no %s spans", name)
						}
					}
				}
			})
		}
	}
}

func TestChecksTripOnACorruptedEnergy(t *testing.T) {
	ctx := context.Background()
	tiny := tinyWorkloads()

	a := tiny[0].new(tinyConfig(t)).(*adapt12)
	mustSetUp(t, a)
	a.measure(ctx, 0, nil)
	if p := a.verify(ctx); len(p) != 0 {
		t.Fatalf("clean adapt run fails its checks: %v", p)
	}
	a.runs[0].res.ErrorVsExact = 3
	if p := a.verify(ctx); len(p) != 1 {
		t.Errorf("corrupted Adapt error passed the check: %v", p)
	}

	w := tiny[1].new(tinyConfig(t)).(*wide20)
	mustSetUp(t, w)
	w.measure(ctx, 50*time.Millisecond, nil)
	if p := w.verify(ctx); len(p) != 0 {
		t.Fatalf("clean wide run fails its checks: %v", p)
	}
	w.runs[0].res.Energy += 1e-6
	if p := w.verify(ctx); len(p) != 1 {
		t.Errorf("corrupted wide energy passed the unfused recompute: %v", p)
	}
	w.runs[0].res.Energy -= 1e-6
	w.golden = map[uint64]float64{w.cfg.seed: w.runs[0].firstEnergy + 1e-6}
	if p := w.verify(ctx); len(p) != 1 {
		t.Errorf("first energy off the golden value passed: %v", p)
	}

	m := tiny[2].new(tinyConfig(t)).(*serveMix)
	mustSetUp(t, m)
	defer m.tearDown()
	m.measure(ctx, 300*time.Millisecond, nil)
	if p := m.verify(ctx); len(p) != 0 {
		t.Fatalf("clean mix fails its checks: %v", p)
	}
	var hit *mixRecord
	for i := mixWarm; i < m.next && hit == nil; i++ {
		if r := m.records[i]; r != nil && r.op.Ref >= 0 {
			hit = r
		}
	}
	if hit == nil {
		t.Fatal("the window completed no cache hit")
	}
	hit.out.View.Result.Energy = math.Nextafter(hit.out.View.Result.Energy, 0)
	if p := m.verify(ctx); len(p) != 1 {
		t.Errorf("a hit one ulp off its first result passed: %v", p)
	}
	hit.out.View.Result.Energy = m.records[hit.op.Ref].out.View.Result.Energy
	hit.out.View.CacheHit = false
	if p := m.verify(ctx); len(p) != 1 || !strings.Contains(p[0], "generated as hit") {
		t.Errorf("a generated hit served as a miss passed: %v", p)
	}

	s := tiny[3].new(tinyConfig(t)).(*serveSweep)
	mustSetUp(t, s)
	defer s.tearDown()
	s.measure(ctx, 0, nil)
	if p := s.verify(ctx); len(p) != 0 {
		t.Fatalf("clean sweep fails its checks: %v", p)
	}
	s.records[0].out.View.Curve[1].Energy += 1e-6
	if p := s.verify(ctx); len(p) != 1 {
		t.Errorf("corrupted sweep point passed the in-process re-run: %v", p)
	}
	s.records[0].out.View.Done--
	if p := s.verify(ctx); len(p) != 1 || !strings.Contains(p[0], "points done") {
		t.Errorf("a family short of a point passed: %v", p)
	}
}

func mustSetUp(t *testing.T, w workload) {
	t.Helper()
	if err := w.setUp(context.Background()); err != nil {
		t.Fatal(err)
	}
}
