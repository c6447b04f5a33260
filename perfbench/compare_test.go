package main

import "testing"

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name  string
		head  []float64
		lower bool
		bound float64
		want  string
	}{
		{"clear gain", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, true, 0.05, "better"},
		{"same", base, true, 0.05, "within bound"},
		{"small loss", []float64{102, 103, 101, 102, 104, 100, 102, 103, 101, 102}, true, 0.05, "within bound"},
		{"large loss", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, 0.05, "worse"},
		{"higher is better loss", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, false, 0.05, "worse"},
		{"no bound", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, -1, "no bound"},
	}
	for _, c := range cases {
		if got := verdict(base, c.head, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	// A base whose own spread exceeds the bound cannot show "within bound".
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := verdict(noisy, noisy, true, 0.05); got != "unresolved" {
		t.Errorf("noisy base: verdict = %q, want unresolved", got)
	}
	// Unless every head run beats every base run.
	if got := verdict(noisy, []float64{10, 11, 12, 10, 11, 12, 10, 11, 12, 10}, true, 0.05); got != "better" {
		t.Errorf("dominating head: verdict = %q, want better", got)
	}
}

func TestSummarizeSide(t *testing.T) {
	s := summarizeSide([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.n != 10 || s.q1 != 2.75 || s.q2 != 5.5 || s.q3 != 8.25 {
		t.Errorf("summarizeSide = %+v", s)
	}
}
