package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones the acceptance check
// computes. It needs at least two values.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, true
}

// percentile is the nearest-rank p-quantile (0 < p < 1) of xs, with the
// number of samples that lie strictly beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailLadder lists the percentiles a timing's tail is reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile is the highest percentile of the ladder that still has at
// least ten samples beyond it; ok is false when not even the median has.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if val, beyond := percentile(xs, tailLadder[i]); beyond >= 10 {
			return tailLadder[i], val, true
		}
	}
	return 0, 0, false
}

// failFrac is failed operations over attempted ones.
func failFrac(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// latencyWindow is the probe count of one p99 window; twenty samples lie
// beyond each window's p99.
const latencyWindow = 2000

// windowP99 splits xs, in measurement order, into consecutive windows of
// latencyWindow samples and returns the median of the windows' p99s. A
// burst of interference from outside the process then moves one window's
// tail, not the reported one. The incomplete last window is dropped.
func windowP99(xs []float64) (v float64, windows int) {
	var tails []float64
	for i := 0; i+latencyWindow <= len(xs); i += latencyWindow {
		p, _ := percentile(xs[i:i+latencyWindow], 0.99)
		tails = append(tails, p)
	}
	return median(tails), len(tails)
}
