package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p99 therefore needs 1000 samples and a p90 needs 100; a median
// needs 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses to report a percentile that fewer than minBeyond samples lie
// beyond, so a tail figure is never read off a handful of points.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: fewer than %d samples beyond it", 100*q, n, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value (mean of the middle two for an even
// count). It summarizes a handful of repeated measurements, such as the
// set-up repetitions, where no tail is reported.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func minimum(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// latencies keeps the first error a percentile query hit, so a report
// can ask for several figures and check once.
type latencies struct {
	err error
}

func (l *latencies) p(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil && l.err == nil {
		l.err = err
	}
	return v
}

// windows splits time-ordered samples into consecutive windows of at
// least n samples each, as many as fit, of near-equal size. Every sample
// lands in a window; with fewer than n samples there is one window.
func windows(xs []float64, n int) [][]float64 {
	k := len(xs) / n
	if k < 1 {
		k = 1
	}
	out := make([][]float64, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k : (i+1)*len(xs)/k]
	}
	return out
}

// windowQuantiles returns the q-quantile of every window of at least n
// samples.
func (l *latencies) windowQuantiles(xs []float64, q float64, n int) []float64 {
	var out []float64
	for _, w := range windows(xs, n) {
		out = append(out, l.p(w, q))
	}
	return out
}

// lowestWindow returns the lowest, over windows of at least n samples,
// of the window's q-quantile. The host this runs on switches for seconds
// at a time between a fast and a slow regime (other tenants), which
// moves every sample of a window alike. A window lasts a fraction of a
// second, so nearly every run has a quiet one, and the quietest window
// is the steadiest estimate of what the program itself costs.
func (l *latencies) lowestWindow(xs []float64, q float64, n int) float64 {
	return minimum(l.windowQuantiles(xs, q, n))
}

// medianWindow returns the median, over windows of at least n samples,
// of the window's q-quantile: a tail that shows in most windows moves
// it, one noisy window does not.
func (l *latencies) medianWindow(xs []float64, q float64, n int) float64 {
	return median(l.windowQuantiles(xs, q, n))
}
