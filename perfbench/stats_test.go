package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, 1.6, 3.1, 7.15},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	// IQR 5.5 over median 5.5.
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.p, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, which := tail99(xs); v != 990 || which != "p99 of 1000" {
		t.Errorf("tail99 = %v (%s), want 990 (p99 of 1000)", v, which)
	}
	if v, which := tail99(xs[:5]); v != 5 || which != "max of 5" {
		t.Errorf("tail99 of 5 = %v (%s), want the max", v, which)
	}
	if v, _ := tail99(xs[:100]); v != 90 {
		t.Errorf("tail99 of 100 = %v, want p90 = 90", v)
	}
}

func TestWinFraction(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{9, 11, 10, 8}
	if w := winFraction(base, head, true); w != 0.5 {
		t.Errorf("lower-is-better wins = %v, want 0.5 (the tie counts for neither)", w)
	}
	if w := winFraction(base, head, false); w != 0.25 {
		t.Errorf("higher-is-better wins = %v, want 0.25", w)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "cell.loadpoint.ms_p99", "sim.hold_ns_per_event", "a-b.c_d", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".leading", "_leading", "has space", "slash/name", "ünïcode", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, m := range perLayerMetrics {
		if !validMetricName(m.name) {
			t.Errorf("per-layer metric %q has an invalid name", m.name)
		}
	}
}
