package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the middle two for even
// counts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so spreads printed here match the ones an
// outside checker computes from the same values. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is checked against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists the percentiles a tail latency may be reported at,
// lowest first.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile is the highest percentile of tailLadder that still has at
// least ten of n samples beyond it, so a reported tail never rests on a
// handful of outliers. ok is false when even the median has fewer than ten
// samples beyond it (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if n-rank(tailLadder[i], n) >= 10 {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of the p-th percentile among
// n sorted samples. The small slack keeps products such as 0.9 × 100 from
// rounding up a whole rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// tail99 reports the 99th percentile when the sample supports it (at least
// ten samples beyond it), otherwise the highest percentile that does, and
// the maximum when not even the median has ten beyond it. The second
// result names the percentile actually used, for the human-readable log.
func tail99(xs []float64) (float64, string) {
	p, ok := tailPercentile(len(xs))
	switch {
	case !ok:
		s := sorted(xs)
		if len(s) == 0 {
			return 0, "none"
		}
		return s[len(s)-1], fmt.Sprintf("max of %d", len(s))
	case p == 50:
		return median(xs), fmt.Sprintf("p50 of %d", len(xs))
	case p > 99:
		p = 99
	}
	return percentile(xs, p), fmt.Sprintf("p%g of %d", p, len(xs))
}

// winFraction is the share of (a[i], b[i]) pairs in which b beats a, given
// which direction is better; ties count for neither side.
func winFraction(a, b []float64, lowerIsBetter bool) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if (lowerIsBetter && b[i] < a[i]) || (!lowerIsBetter && b[i] > a[i]) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// metricName is the grammar every reported metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name may appear in a result line.
func validMetricName(name string) bool { return metricName.MatchString(name) }
