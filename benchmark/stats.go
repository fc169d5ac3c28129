package main

import (
	"math"
	"sort"
)

// stat summarises the samples of one metric. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), the rule the
// acceptance procedure uses for run-to-run spread, so a spread computed
// from a result file and one computed from ten runs mean the same thing.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(unit string, samples []float64) stat {
	s := stat{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Q1, s.Median, s.Q3 = quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	return s
}

// quantile interpolates at position p*(n+1) of the sorted samples,
// clamped to the ends.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(samples []float64) float64 { return summarize("", samples).Median }

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p*float64(len(sorted)))), 1), len(sorted))
	return sorted[rank-1]
}
