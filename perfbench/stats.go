package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: with fewer, one preempted op moves it.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether at least minTail samples lie beyond it. Callers must not report
// the value when ok is false.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minTail
}

// ratio is a / b, or 0 when b is 0 (no samples), so a run whose every op
// failed still prints finite metrics.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// chunkRate is the median completion rate over consecutive chunks of k
// completions: ends holds completion times in seconds since the loop
// started. A stall slows one chunk, not the whole run's rate.
func chunkRate(ends []float64, k int) float64 {
	s := sorted(ends)
	var rates []float64
	prev := 0.0
	for i := k - 1; i < len(s); i += k {
		if d := s[i] - prev; d > 0 {
			rates = append(rates, float64(k)/d)
		}
		prev = s[i]
	}
	if len(rates) == 0 && len(s) > 0 && s[len(s)-1] > 0 {
		return float64(len(s)) / s[len(s)-1]
	}
	return median(rates)
}
