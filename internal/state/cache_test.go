package state

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

func preparedState(seed uint64) *State {
	s := New(4, Options{})
	s.Run(circuit.New(4).H(0).CX(0, 1).RY(float64(seed)*0.1, 2).CX(2, 3))
	return s
}

// TestCachePutRestore: a restore returns the last snapshot put, each Put
// replacing the one before.
func TestCachePutRestore(t *testing.T) {
	c := NewCache(0)
	dst := New(4, Options{})
	for _, seed := range []uint64{3, 9} {
		src := preparedState(seed)
		c.Put(src)
		tier, ok := c.Restore(dst)
		if !ok || tier != TierDevice {
			t.Fatalf("restore failed: %v %v", tier, ok)
		}
		for i := range src.amps {
			if !core.AlmostEqualC(dst.amps[i], src.amps[i], 1e-15) {
				t.Fatalf("snapshot %d: restored amplitudes differ", seed)
			}
		}
	}
	if st := c.Stats(); st.Puts != 2 || st.BytesStored != 16*BytesPerAmp {
		t.Errorf("stats %+v, want 2 puts and one 4-qubit snapshot stored", st)
	}
}

func TestCacheMiss(t *testing.T) {
	c := NewCache(0)
	dst := New(4, Options{})
	if _, ok := c.Restore(dst); ok {
		t.Error("hit on empty cache")
	}
	if c.Stats().Misses != 1 {
		t.Error("miss not counted")
	}
}

func TestCacheSnapshotIsolation(t *testing.T) {
	c := NewCache(0)
	src := preparedState(1)
	c.Put(src)
	src.ResetZero() // mutate after Put
	dst := New(4, Options{})
	c.Restore(dst)
	if core.AlmostEqualC(dst.amps[3], 0, 1e-18) && core.AlmostEqualC(dst.amps[0], 1, 1e-18) {
		t.Error("cache shares storage with source state")
	}
}

func TestCacheHostSpill(t *testing.T) {
	// Device capacity below one 4-qubit snapshot (16 amps × 16 B = 256 B).
	c := NewCache(128)
	c.Put(preparedState(2))
	dst := New(4, Options{})
	tier, ok := c.Restore(dst)
	if !ok {
		t.Fatal("restore failed")
	}
	if tier != TierHost {
		t.Errorf("tier %v, want host", tier)
	}
	st := c.Stats()
	if st.HostSpills != 1 || st.HostHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestCacheWidthMismatchIsMiss(t *testing.T) {
	c := NewCache(0)
	c.Put(preparedState(1))
	dst := New(2, Options{})
	if _, ok := c.Restore(dst); ok {
		t.Error("restored into wrong-width state")
	}
}
