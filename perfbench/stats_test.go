package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 10, 10, 40}, [3]float64{10, 10, 32.5}},
	} {
		got, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v, beyond := percentile(seq(1000), 0.99)
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	v, beyond = percentile(seq(4), 0.5)
	if v != 2 || beyond != 2 {
		t.Errorf("p50 of 1..4 = %v with %d beyond, want 2 with 2", v, beyond)
	}
}

// The tail is reported at the highest percentile with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		p, v  float64
		valid bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.9, 900, true}, // p99 would leave only 9 beyond
		{10000, 0.999, 9990, true},
		{100, 0.9, 90, true},
		{20, 0.5, 10, true},
		{19, 0, 0, false},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.valid || p != c.p || v != c.v {
			t.Errorf("n=%d: tail = p%v %v (ok=%v), want p%v %v (ok=%v)", c.n, p, v, ok, c.p, c.v, c.valid)
		}
	}
}

func TestFailFrac(t *testing.T) {
	if got := failFrac(0, 10); got != 0 {
		t.Errorf("failFrac(0, 10) = %v", got)
	}
	if got := failFrac(1, 4); got != 0.25 {
		t.Errorf("failFrac(1, 4) = %v", got)
	}
	if got := failFrac(0, 0); got != 1 {
		t.Errorf("failFrac with nothing attempted = %v, want 1", got)
	}
}

func TestWindowP99(t *testing.T) {
	xs := append(seq(latencyWindow), seq(latencyWindow)...)
	for i := range xs[:latencyWindow] {
		xs[i] *= 100 // one window of interference
	}
	xs = append(xs, seq(latencyWindow)...)
	xs = append(xs, 1e9) // incomplete window, dropped
	want, _ := percentile(seq(latencyWindow), 0.99)
	v, n := windowP99(xs)
	if n != 3 || v != want {
		t.Errorf("windowP99 = %v over %d windows, want %v over 3", v, n, want)
	}
	if _, n := windowP99(seq(latencyWindow - 1)); n != 0 {
		t.Errorf("short input gave %d windows", n)
	}
}
