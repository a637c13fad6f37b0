package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tail returns the highest percentile that still has at least tailBeyond
// samples beyond it, with the sample at that percentile. With n samples in
// ascending order that is the (n-tailBeyond)-th smallest (nearest rank),
// at percentile 100·(n-tailBeyond)/n. ok is false when n <= tailBeyond:
// then no percentile has enough samples beyond it.
func tail(samples []float64) (value, percentile float64, ok bool) {
	n := len(samples)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sorted(samples)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

// median returns the middle sample (the mean of the two middle samples for
// an even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
