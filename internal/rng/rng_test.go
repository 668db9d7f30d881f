package rng_test

import (
	"math"
	"testing"
	"testing/quick"

	"arbods/internal/rng"
)

func TestDeterminism(t *testing.T) {
	a, b := rng.New(42), rng.New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := rng.New(43)
	same := 0
	a = rng.New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestForNodeIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for node := 0; node < 1000; node++ {
		s := rng.Init(7, node)
		v := s.Uint64()
		if seen[v] {
			t.Fatalf("node streams collided at node %d", node)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	prop := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := rng.New(seed)
		for i := 0; i < 20; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	rng.New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := rng.New(9)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %g too far from 0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	s := rng.New(3)
	if s.Bernoulli(0) || !s.Bernoulli(1) {
		t.Fatal("degenerate probabilities wrong")
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) frequency %g", f)
	}
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 100)
		p := make([]int, n)
		rng.New(seed).PermInto(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt63nRange(t *testing.T) {
	s := rng.New(17)
	for i := 0; i < 1000; i++ {
		v := s.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}
