package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	thirty := make([]float64, 30)
	for i := range thirty {
		thirty[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sample []float64
		p      float64
		want   float64
	}{
		{"median of ten is the 5th", ten, 0.5, 5},
		{"p90 of ten is the 9th", ten, 0.9, 9},
		{"p100 is the max", ten, 1, 10},
		{"tiny p is the min", ten, 0.01, 1},
		{"p90 of thirty is the 27th despite float rounding", thirty, 0.9, 27},
		{"p50 of thirty is the 15th", thirty, 0.5, 15},
		{"single sample", []float64{42}, 0.9, 42},
	} {
		if got := nearestRank(tc.sample, tc.p); got != tc.want {
			t.Errorf("%s: nearestRank(p=%g) = %g, want %g", tc.name, tc.p, got, tc.want)
		}
	}
	if got := nearestRank(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("nearestRank of an empty sample = %g, want NaN", got)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if xs[0] != 3 {
		t.Errorf("median sorted its input: %v", xs)
	}
}
