package resilience

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type fakeState struct {
	Params []float64 `json:"params"`
	Energy float64   `json:"energy"`
	Iter   int       `json:"iter"`
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	in := fakeState{
		Params: []float64{0.1, -1.0 / 3.0, math.Pi, 1e-17, math.Nextafter(1, 2)},
		Energy: -1.137283834976,
		Iter:   42,
	}
	if err := SaveCheckpoint(path, "test-kind", in.Iter, &in); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	kind, iter, err := LoadCheckpoint(path, &out)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "test-kind" || iter != 42 {
		t.Errorf("kind=%q iter=%d", kind, iter)
	}
	// Bit-exact float round-trip is what resume equivalence rests on.
	for i, v := range in.Params {
		if math.Float64bits(out.Params[i]) != math.Float64bits(v) {
			t.Errorf("param %d: %x != %x", i, out.Params[i], v)
		}
	}
	if math.Float64bits(out.Energy) != math.Float64bits(in.Energy) {
		t.Error("energy not bit-exact")
	}
}

func TestCheckpointOverwriteIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	for i := 0; i < 5; i++ {
		if err := SaveCheckpoint(path, "k", i, &fakeState{Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	var out fakeState
	if _, iter, err := LoadCheckpoint(path, &out); err != nil || iter != 4 {
		t.Fatalf("iter=%d err=%v", iter, err)
	}
	// No temp files may survive a successful commit sequence.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadCheckpointDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := SaveCheckpoint(path, "k", 1, &fakeState{Params: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the payload (keeps the JSON valid).
	flipped := strings.Replace(string(buf), "[1,2,3]", "[1,2,4]", 1)
	if flipped == string(buf) {
		t.Fatal("payload pattern not found")
	}
	if err := os.WriteFile(path, []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	if _, _, err := LoadCheckpoint(path, &out); !errors.Is(err, ErrCheckpointInvalid) {
		t.Errorf("corruption not detected: %v", err)
	}
}

func TestLoadCheckpointRejectsBadVersionAndGarbage(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out fakeState
	if _, _, err := LoadCheckpoint(garbage, &out); !errors.Is(err, ErrCheckpointInvalid) {
		t.Errorf("garbage accepted: %v", err)
	}
	versioned := filepath.Join(dir, "versioned.json")
	raw, _ := json.Marshal(fakeState{})
	env := map[string]any{"version": 99, "kind": "k", "iteration": 0, "crc32c": 0, "payload": json.RawMessage(raw)}
	buf, _ := json.Marshal(env)
	if err := os.WriteFile(versioned, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(versioned, &out); !errors.Is(err, ErrCheckpointInvalid) {
		t.Errorf("future version accepted: %v", err)
	}
	if _, _, err := LoadCheckpoint(filepath.Join(dir, "missing.json"), &out); err == nil || errors.Is(err, ErrCheckpointInvalid) {
		t.Errorf("missing file should surface as an I/O error, got %v", err)
	}
}

func TestCheckpointKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := SaveCheckpoint(path, "lbfgs", 3, &fakeState{}); err != nil {
		t.Fatal(err)
	}
	kind, err := CheckpointKind(path)
	if err != nil || kind != "lbfgs" {
		t.Errorf("kind=%q err=%v", kind, err)
	}
}

func TestCadence(t *testing.T) {
	var every Cadence // zero value: every iteration
	for i := 1; i <= 3; i++ {
		if !every.Due(i) {
			t.Errorf("zero cadence skipped iter %d", i)
		}
	}
	c := Cadence{Interval: 3}
	var fired []int
	for i := 1; i <= 10; i++ {
		if c.Due(i) {
			fired = append(fired, i)
		}
	}
	want := []int{1, 4, 7, 10}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestCadenceGap: a wall-clock floor holds writes back until Gap has
// passed since the loop started or since the last write, on top of the
// iteration interval; a loop shorter than Gap writes nothing.
func TestCadenceGap(t *testing.T) {
	short := NewCadence(1, time.Hour)
	for i := 1; i <= 100; i++ {
		if short.Due(i) {
			t.Fatalf("iteration %d due an hour before the floor", i)
		}
	}

	const gap = 20 * time.Millisecond
	c := NewCadence(3, gap)
	if c.Due(1) {
		t.Fatal("due before the floor had passed since the start")
	}
	time.Sleep(gap + 5*time.Millisecond)
	if !c.Due(2) {
		t.Fatal("not due once the floor had passed")
	}
	if c.Due(3) {
		t.Fatal("due again right after a write")
	}
	time.Sleep(gap + 5*time.Millisecond)
	if c.Due(4) {
		t.Fatal("due before the interval had passed since the last write")
	}
	if !c.Due(5) {
		t.Fatal("not due with both the interval and the floor met")
	}
}
