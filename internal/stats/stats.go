// Package stats provides the probability and summary-statistics helpers
// shared across the repository: the standard-normal distribution (needed
// by the Expected-Improvement acquisition family), streaming moments, and
// quantile/whisker summaries (needed to reproduce the random-search
// distribution study, paper Fig. 12).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// NormPDF returns the standard normal density φ(x).
func NormPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormCDF returns the standard normal cumulative Φ(x).
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Welford accumulates mean and variance in a single numerically stable pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 points).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Std()
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Whisker is the box-and-whisker summary used by the paper's Fig. 12.
type Whisker struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the whisker summary of xs.
func Summarize(xs []float64) Whisker {
	if len(xs) == 0 {
		return Whisker{Min: math.NaN(), Q1: math.NaN(), Median: math.NaN(), Q3: math.NaN(), Max: math.NaN(), Mean: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Whisker{
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
}

// String renders the summary in a compact human-readable form.
func (w Whisker) String() string {
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g",
		w.N, w.Min, w.Q1, w.Median, w.Q3, w.Max, w.Mean)
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
