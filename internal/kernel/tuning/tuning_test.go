package tuning

import "testing"

func TestDefaultsMatchLegacyHardcodedThresholds(t *testing.T) {
	want := T{GateParallel: 1 << 14, ReduceParallel: 1 << 12, TileBits: 11}
	if d := Defaults(); d != want {
		t.Errorf("Defaults() = %+v, want %+v", d, want)
	}
	if c := Current(); c != want {
		t.Errorf("Current() = %+v, want %+v", c, want)
	}
	if Source() != "default" {
		t.Errorf("Source = %q", Source())
	}
}

// TestSnapshotKeys pins the map the benchmark header and (plus the
// cluster's pool cutoff) /v1/capabilities publish.
func TestSnapshotKeys(t *testing.T) {
	snap := Snapshot()
	keys := []string{"source", "gate_parallel", "reduce_parallel", "tile_bits"}
	for _, k := range keys {
		if _, ok := snap[k]; !ok {
			t.Errorf("Snapshot missing %q", k)
		}
	}
	if len(snap) != len(keys) {
		t.Errorf("Snapshot has %d keys, want %d: %v", len(snap), len(keys), snap)
	}
}
