package core

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDim(t *testing.T) {
	cases := []struct{ n, want int }{{0, 1}, {1, 2}, {4, 16}, {10, 1024}, {20, 1 << 20}}
	for _, c := range cases {
		if got := Dim(c.n); got != c.want {
			t.Errorf("Dim(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDimPanics(t *testing.T) {
	for _, n := range []int{-1, 63, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dim(%d) did not panic", n)
				}
			}()
			Dim(n)
		}()
	}
}

func TestBitHelpers(t *testing.T) {
	if !BitSet(0b1010, 1) || BitSet(0b1010, 0) {
		t.Error("BitSet wrong")
	}
	if FlipBit(0b1010, 1) != 0b1000 {
		t.Error("FlipBit wrong")
	}
	if SetBit(0, 3, true) != 8 || SetBit(8, 3, false) != 0 {
		t.Error("SetBit wrong")
	}
}

func TestInsertZeroBit(t *testing.T) {
	// Inserting a zero at position q enumerates exactly the indices with
	// bit q clear, in increasing order.
	for q := 0; q < 5; q++ {
		seen := map[uint64]bool{}
		prev := int64(-1)
		for rest := uint64(0); rest < 16; rest++ {
			x := InsertZeroBit(rest, q)
			if BitSet(x, q) {
				t.Fatalf("InsertZeroBit(%d,%d)=%d has bit %d set", rest, q, x, q)
			}
			if seen[x] {
				t.Fatalf("duplicate index %d", x)
			}
			seen[x] = true
			if int64(x) <= prev {
				t.Fatalf("not increasing at rest=%d q=%d", rest, q)
			}
			prev = int64(x)
		}
	}
}

func TestInsertTwoZeroBits(t *testing.T) {
	for _, pq := range [][2]int{{0, 1}, {1, 3}, {2, 0}, {4, 2}} {
		p, q := pq[0], pq[1]
		seen := map[uint64]bool{}
		for rest := uint64(0); rest < 8; rest++ {
			x := InsertTwoZeroBits(rest, p, q)
			if BitSet(x, p) || BitSet(x, q) {
				t.Fatalf("bits %d,%d not clear in %b", p, q, x)
			}
			if seen[x] {
				t.Fatalf("duplicate %d", x)
			}
			seen[x] = true
		}
	}
}

func TestInsertZeroBitProperty(t *testing.T) {
	f := func(rest uint16, qRaw uint8) bool {
		q := int(qRaw % 16)
		x := InsertZeroBit(uint64(rest), q)
		// Removing the inserted bit recovers rest.
		low := x & (1<<uint(q) - 1)
		high := x >> uint(q+1) << uint(q)
		return low|high == uint64(rest) && !BitSet(x, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPopCountParity pins the set-bit counts the engine reads Z-string
// parities from (bits.OnesCount64; the package has no popcount of its
// own).
func TestPopCountParity(t *testing.T) {
	if bits.OnesCount64(0) != 0 || bits.OnesCount64(0xFF) != 8 || bits.OnesCount64(1<<63) != 1 {
		t.Error("bits.OnesCount64 wrong")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-10) {
		t.Error("should be almost equal")
	}
	if AlmostEqual(1.0, 1.001, 1e-10) {
		t.Error("should differ")
	}
	if !AlmostEqualC(1+1i, 1+1i+1e-13, 1e-10) {
		t.Error("complex should be almost equal")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	b := a.Split()
	// Streams should not be identical.
	same := true
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Error("split stream identical to parent")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Errorf("normal moments off: mean=%v var=%v", mean, variance)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(4)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}

func TestQubitError(t *testing.T) {
	err := QubitError(5, 3)
	if err == nil {
		t.Fatal("nil error")
	}
}
