package costmodel

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runspec"
)

// synthSamples generates samples from a known log-linear law so Fit can be
// checked against ground truth.
func synthSamples(c0, c1, c2, c3 float64) []Sample {
	var out []Sample
	for _, q := range []int{4, 6, 8, 10, 12} {
		for _, terms := range []int{20, 100, 400} {
			for _, iters := range []int{50, 200, 800} {
				ln := c0 + c1*float64(q) + c2*math.Log(float64(terms)) + c3*math.Log(float64(iters))
				out = append(out, Sample{
					Features: Features{Qubits: q, Terms: terms, Iters: iters},
					RunNs:    int64(math.Round(math.Exp(ln))),
				})
			}
		}
	}
	return out
}

func TestFitRecoversKnownLaw(t *testing.T) {
	want := [4]float64{10.0, 0.35, 0.8, 0.95}
	m, err := Fit(synthSamples(want[0], want[1], want[2], want[3]))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(m.Coef[i]-want[i]) > 1e-4 {
			t.Fatalf("coef[%d] = %g, want %g (all: %v)", i, m.Coef[i], want[i], m.Coef)
		}
	}
	if m.RMSLE > 1e-4 {
		t.Fatalf("RMSLE %g on noiseless data", m.RMSLE)
	}
	// Prediction at an unseen point interpolates the law.
	f := Features{Qubits: 7, Terms: 150, Iters: 300}
	wantNs := math.Exp(want[0] + want[1]*7 + want[2]*math.Log(150) + want[3]*math.Log(300))
	if got := m.PredictNs(f); math.Abs(got-wantNs)/wantNs > 1e-4 {
		t.Fatalf("PredictNs = %g, want %g", got, wantNs)
	}
}

func TestFitRejectsDegenerate(t *testing.T) {
	if _, err := Fit(nil); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("empty fit: %v", err)
	}
	// All-identical features make the normal equations singular.
	same := make([]Sample, 8)
	for i := range same {
		same[i] = Sample{Features: Features{Qubits: 4, Terms: 10, Iters: 10}, RunNs: 1000000}
	}
	if _, err := Fit(same); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("degenerate fit: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Fit(synthSamples(9, 0.3, 0.7, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cost.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("round trip header mismatch: %+v vs %+v", back, m)
	}
	for i := range m.Coef {
		if back.Coef[i] != m.Coef[i] {
			t.Fatalf("round trip coef mismatch: %v vs %v", back.Coef, m.Coef)
		}
	}

	// A profile from a different machine shape must be rejected.
	m2 := *m
	m2.GoMaxProcs = m.GoMaxProcs + 1
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := m2.Save(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("GOMAXPROCS mismatch accepted")
	}
	m3 := *m
	m3.Schema = SchemaVersion + 1
	badSchema := filepath.Join(t.TempDir(), "schema.json")
	if err := m3.Save(badSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badSchema); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestFeaturesForAndEstimator(t *testing.T) {
	spec := runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "h2"}}
	spec.ApplyDefaults()
	f, err := FeaturesFor(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Qubits <= 0 || f.Terms <= 0 || f.Iters <= 0 {
		t.Fatalf("implausible features: %+v", f)
	}

	m, err := Fit(synthSamples(9, 0.3, 0.7, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimator()
	d1, ok := est(&spec)
	if !ok || d1 <= 0 {
		t.Fatalf("estimator: %v %v", d1, ok)
	}
	// Cached path returns the identical quote.
	if d2, _ := est(&spec); d2 != d1 {
		t.Fatalf("cache changed the quote: %v vs %v", d2, d1)
	}
	bad := runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "no-such-molecule"}}
	if _, ok := est(&bad); ok {
		t.Fatal("estimator claimed success on an invalid spec")
	}
}

func TestProbeAndLoadOrProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe runs real simulations")
	}
	// Two tiny entries, deduped against a repeat.
	entries := []runspec.MixEntry{
		{Name: "h2", Weight: 1, Spec: runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "h2"}}},
		{Name: "h2-again", Weight: 1, Spec: runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "h2"}}},
		{Name: "hub2", Weight: 1, Spec: runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "hubbard", Sites: 2}}},
	}
	samples, err := Probe(context.Background(), entries, ProbeOptions{Repetitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("probe did not dedupe: %d samples", len(samples))
	}
	for _, s := range samples {
		if s.RunNs <= 0 {
			t.Fatalf("non-positive probe runtime: %+v", s)
		}
	}

	path := filepath.Join(t.TempDir(), "cost.json")
	m1, probed, err := LoadOrProbe(context.Background(), path, ProbeOptions{Repetitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("first LoadOrProbe must probe")
	}
	// Second call must hit the saved profile, not re-probe.
	m2, probed, err := LoadOrProbe(context.Background(), path, ProbeOptions{Repetitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if probed {
		t.Fatal("second LoadOrProbe re-probed instead of loading")
	}
	for i := range m1.Coef {
		if m1.Coef[i] != m2.Coef[i] {
			t.Fatal("LoadOrProbe did not reuse the saved profile")
		}
	}
}
