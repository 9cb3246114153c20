package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}, {-1, 1}, {2, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

// The rule of the choosing-metrics guide: a percentile is reported only
// with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSliceRatesAndMedianOfSlices(t *testing.T) {
	sec := time.Second
	// Five 2 s slices of a 10 s window: 4, 2, 0, 2 and 6 completions; one
	// warm-up completion and one late one are ignored.
	ends := []time.Duration{
		-sec, 0, sec / 2, sec, 2*sec - 1,
		2 * sec, 3 * sec,
		6 * sec, 7 * sec,
		8 * sec, 8 * sec, 9 * sec, 9 * sec, 9 * sec, 10*sec - 1,
		10 * sec,
	}
	rates := sliceRates(ends, 10*sec, 5)
	want := []float64{2, 1, 0, 1, 3}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("sliceRates = %v, want %v", rates, want)
		}
	}
	// One stalled slice and one burst do not move the median.
	if got := median(rates); got != 1 {
		t.Errorf("median slice rate = %v, want 1", got)
	}
	// A window that does not divide evenly gives its remainder to the last slice.
	r := sliceRates([]time.Duration{9, 9, 9, 9}, 10, 3) // slices [0,3) [3,6) [6,10)
	if r[2] != 4/(4*time.Nanosecond).Seconds() {
		t.Errorf("last slice rate = %v", r[2])
	}
}

func TestSelfTimeAndRatio(t *testing.T) {
	if got := selfTime(5, 3.5); got != 1.5 {
		t.Errorf("selfTime(5, 3.5) = %v", got)
	}
	if got := selfTime(3, 3.2); got != 0 {
		t.Errorf("a child longer than its parent must read 0, got %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}
