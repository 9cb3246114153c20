package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending
// sample by linear interpolation between closest ranks; 0 for an empty
// sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// minTailSamples is how many samples must lie beyond a percentile for
// it to be reported (choosing-metrics guide, section 1).
const minTailSamples = 10

// tailSupported reports whether a sample of n supports the q-quantile:
// at least minTailSamples of the n lie beyond it.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples
}

// sliceRates cuts [0, window) into slices equal parts and returns the
// events per second of each, counting the completion offsets in ends
// (offsets outside the window are ignored).
func sliceRates(ends []time.Duration, window time.Duration, slices int) []float64 {
	counts := make([]int, slices)
	width := window / time.Duration(slices)
	for _, e := range ends {
		if e < 0 || e >= window {
			continue
		}
		i := int(e / width)
		if i >= slices { // window not divisible by slices: the remainder joins the last slice
			i = slices - 1
		}
		counts[i]++
	}
	rates := make([]float64, slices)
	for i, c := range counts {
		w := width
		if i == slices-1 {
			w = window - width*time.Duration(slices-1)
		}
		rates[i] = float64(c) / w.Seconds()
	}
	return rates
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTime is a ladder rung's own time: its span minus the rung below
// it. Timing noise can make a thin layer come out below zero; that is
// reported as 0, not as negative work.
func selfTime(span, child float64) float64 {
	if d := span - child; d > 0 {
		return d
	}
	return 0
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
