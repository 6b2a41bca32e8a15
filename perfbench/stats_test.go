package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := func() []float64 { return []float64{50, 15, 40, 20, 35} }
	for _, tc := range []struct {
		p, want float64
	}{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs(), tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}
