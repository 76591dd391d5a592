package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the smallest of xs; NaN for an empty slice.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the acceptance spread is computed with. It needs at least
// two values; fewer yield NaNs.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to be wider than.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile returns the p-th percentile (0–100) by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the tail cuts a report may quote, lowest first.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile that still has at least
// ten of the n samples beyond it. With fewer than 40 samples none
// qualifies and only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		// 1e-9 absorbs the rounding of e.g. 100·(100−90)/100.
		if float64(n)*(100-c)/100 >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// twoPoint fits time = intercept + slope·steps through the wall times of
// a run at stepsLong and one at stepsShort steps. The slope is the cost
// of one more step as a user of the binary pays it (BCs, wrap, exchange
// and snapshot waves included); the intercept is everything that does not
// scale with the step count (process start, allocation, init, rank
// spin-up, gather, image write, exit).
func twoPoint(tLong, tShort float64, stepsLong, stepsShort int) (slope, intercept float64) {
	slope = (tLong - tShort) / float64(stepsLong-stepsShort)
	return slope, tShort - float64(stepsShort)*slope
}

// evenBlock rounds a step count up to the next even number ≥ 2, so a
// timed block of AA steps always holds both storage parities.
func evenBlock(steps int) int {
	if steps < 2 {
		return 2
	}
	return steps + steps%2
}
