package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail set by fewer samples than this moves with every run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of the samples: the
// smallest sample with at least p·n samples at or below it. It refuses a
// percentile with fewer than minBeyond samples beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, n-k, minBeyond)
	}
	s := sortedCopy(samples)
	return s[k-1], nil
}

// tailP is the highest percentile, capped at p99, that n samples can
// report under percentile's rule.
func tailP(n int) float64 {
	return min(0.99, float64(n-minBeyond)/float64(n))
}

// quartiles returns Q1, the median and Q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed by -repeat match an independent check of the same runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
