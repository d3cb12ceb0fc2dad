package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := Stream(42, 7)
	b := Stream(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, id) diverged at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := Stream(42, 1)
	b := Stream(42, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent streams collided %d/64 times", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := Stream(1, 0)
	b := Stream(2, 0)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("different seeds produced identical output")
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix(0x1234, 0x5678)
	flipped := Mix(0x1234, 0x5679)
	diff := base ^ flipped
	bits := 0
	for diff != 0 {
		bits += int(diff & 1)
		diff >>= 1
	}
	if bits < 16 || bits > 48 {
		t.Errorf("poor avalanche: %d differing bits", bits)
	}
}

func TestUniformity(t *testing.T) {
	// Crude chi-square-ish check: bucket 100k Float64 draws into 10 bins.
	r := New(99)
	const n = 100000
	var bins [10]int
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		bins[int(f*10)]++
	}
	for i, c := range bins {
		if math.Abs(float64(c)-n/10) > 600 {
			t.Errorf("bin %d count %d deviates from %d", i, c, n/10)
		}
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := &source{state: 123}
	for i := 0; i < 1000; i++ {
		if s.Int63() < 0 {
			t.Fatal("Int63 returned negative value")
		}
	}
}

// TestReseedMatchesNew: reseeding a used generator in place restarts it
// exactly as a fresh New with the same seed.
func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	r.Intn(5)
	for _, seed := range []uint64{0, 7, 1<<63 + 5} {
		r.Seed(int64(seed))
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if a, b := r.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, a, b)
			}
		}
	}
}
