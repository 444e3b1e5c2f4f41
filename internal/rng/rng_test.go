package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "mobility")
	b := New(42, "mobility")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	a := New(42, "mobility")
	b := New(42, "workload")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical (%d equal draws)", same)
	}
}

func TestStreamIndependenceBySeed(t *testing.T) {
	a := New(1, "x")
	b := New(2, "x")
	if a.Float64() == b.Float64() {
		t.Fatal("nearby seeds should decorrelate via splitmix64")
	}
}

func TestDerive(t *testing.T) {
	a := New(7, "root").Derive("child")
	b := New(7, "root").Derive("child")
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("derived streams are not deterministic")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1, "u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	s := New(1, "ib")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntBetween(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 5; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
	// Swapped bounds are normalized.
	if v := s.IntBetween(5, 3); v < 3 || v > 5 {
		t.Errorf("swapped bounds IntBetween out of range: %d", v)
	}
	// Degenerate range returns the single value.
	if v := s.IntBetween(4, 4); v != 4 {
		t.Errorf("degenerate IntBetween = %d", v)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(9, "norm")
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean=%v want ~10", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("variance=%v want ~4", variance)
	}
}

func TestExpPositive(t *testing.T) {
	s := New(8, "exp")
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		v := s.Exp(0.5)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-2) > 0.15 {
		t.Errorf("Exp(0.5) mean = %v want ~2", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11, "perm")
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13, "bool")
	trues := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.25) {
			trues++
		}
	}
	if trues < 2200 || trues > 2800 {
		t.Errorf("Bool(0.25) frequency = %d/10000", trues)
	}
}
