// Package stats provides the descriptive statistics behind ActorProf's
// visualizations: five-number summaries for the quartile violin plots,
// means and imbalance factors for the bar graphs, and smoothed density
// estimates for the violin bodies.
package stats

import (
	"math"
	"sort"
	"strconv"
)

// Quartiles is a five-number summary.
type Quartiles struct {
	Min, Q1, Median, Q3, Max float64
}

// String renders the summary compactly:
// "min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g".
func (q Quartiles) String() string { return string(q.AppendTo(nil)) }

// AppendTo appends the String form to b without fmt, so a plot can put
// it in a mark's title at no allocation.
func (q Quartiles) AppendTo(b []byte) []byte {
	for i, v := range [5]float64{q.Min, q.Q1, q.Median, q.Q3, q.Max} {
		b = append(b, quartileKeys[i]...)
		b = strconv.AppendFloat(b, v, 'g', 4, 64)
	}
	return b
}

var quartileKeys = [5]string{"min=", " q1=", " med=", " q3=", " max="}

// quantile computes the p-quantile (0..1) of sorted data with linear
// interpolation (the same "linear" method numpy defaults to, keeping the
// plots comparable with the paper's python tooling).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// dropNaN returns vals without NaNs. The input slice is returned as-is
// (no copy) when it carries none, which is the overwhelmingly common
// case; callers must not mutate the result without copying.
//
// NaNs reach this package through degenerate trace arithmetic (0/0
// rates on idle PEs) and must not poison summaries: sort.Float64s is
// unspecified in their presence and one NaN turns a whole kernel
// density to NaN.
func dropNaN(vals []float64) []float64 {
	for i, v := range vals {
		if math.IsNaN(v) {
			out := make([]float64, i, len(vals))
			copy(out, vals[:i])
			for _, v := range vals[i+1:] {
				if !math.IsNaN(v) {
					out = append(out, v)
				}
			}
			return out
		}
	}
	return vals
}

// Summarize computes the five-number summary of vals. It copies and
// sorts; the input is not modified. Empty input yields the zero summary,
// consistent with Mean's 0 (degenerate traces must not crash the
// visualizer); NaN values are ignored, and all-NaN input degrades to the
// empty-input behavior.
func Summarize(vals []float64) Quartiles {
	vals = dropNaN(vals)
	if len(vals) == 0 {
		return Quartiles{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Quartiles{
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// Mean returns the arithmetic mean (0 for empty input; NaNs ignored).
func Mean(vals []float64) float64 {
	vals = dropNaN(vals)
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// StdDev returns the population standard deviation (NaNs ignored).
func StdDev(vals []float64) float64 {
	vals = dropNaN(vals)
	if len(vals) < 2 {
		return 0
	}
	m := Mean(vals)
	var ss float64
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)))
}

// Density is a smoothed density estimate over a value range, the body of
// a violin plot.
type Density struct {
	// Lo and Hi bound the value axis.
	Lo, Hi float64
	// Weights[i] is the (normalized, max = 1) density of the i-th of
	// len(Weights) equal-width bins.
	Weights []float64
}

// EstimateDensity builds a kernel-smoothed histogram with the given
// number of bins. Gaussian kernel, Silverman's rule-of-thumb bandwidth.
// Empty input yields an all-zero density (consistent with Summarize and
// Mean); a single distinct value yields a unit spike. NaN values are
// ignored - a single NaN would otherwise spread to every bin weight.
func EstimateDensity(vals []float64, bins int) Density {
	if bins <= 0 {
		bins = 32
	}
	vals = dropNaN(vals)
	if len(vals) == 0 {
		return Density{Weights: make([]float64, bins)}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	d := Density{Lo: lo, Hi: hi, Weights: make([]float64, bins)}
	if hi == lo {
		d.Weights[bins/2] = 1
		return d
	}
	// Silverman bandwidth on the value scale.
	sd := StdDev(vals)
	if sd == 0 {
		sd = (hi - lo) / 4
	}
	bw := 1.06 * sd * math.Pow(float64(len(vals)), -0.2)
	if bw <= 0 {
		bw = (hi - lo) / float64(bins)
	}
	step := (hi - lo) / float64(bins-1)
	for i := 0; i < bins; i++ {
		x := lo + float64(i)*step
		var acc float64
		for _, v := range vals {
			z := (x - v) / bw
			acc += math.Exp(-0.5 * z * z)
		}
		d.Weights[i] = acc
	}
	max := 0.0
	for _, w := range d.Weights {
		max = math.Max(max, w)
	}
	if max > 0 {
		for i := range d.Weights {
			d.Weights[i] /= max
		}
	}
	return d
}

// Stream accumulates count/sum/min/max of int64 observations in O(1)
// memory: the streaming-aggregation counterpart of Summarize for
// scans that never materialize the value slice. All state is exact
// integer arithmetic, so Merge is commutative and associative - partial
// accumulators folded by parallel trace shards in any order produce the
// same result as a sequential scan.
type Stream struct {
	Count int64
	Sum   int64
	MinV  int64 // valid only when Count > 0
	MaxV  int64 // valid only when Count > 0
}

// Observe folds one value into the accumulator.
func (s *Stream) Observe(v int64) {
	if s.Count == 0 || v < s.MinV {
		s.MinV = v
	}
	if s.Count == 0 || v > s.MaxV {
		s.MaxV = v
	}
	s.Count++
	s.Sum += v
}

// Merge folds another accumulator into s.
func (s *Stream) Merge(o Stream) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	if o.MinV < s.MinV {
		s.MinV = o.MinV
	}
	if o.MaxV > s.MaxV {
		s.MaxV = o.MaxV
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Mean returns the arithmetic mean (0 for an empty accumulator).
func (s Stream) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Histogram bins vals into n equal-width buckets over [lo, hi] and
// returns the counts. Values outside the range clamp to the end bins.
func Histogram(vals []float64, lo, hi float64, n int) []int {
	counts := make([]int, n)
	if n == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(n)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue // int(NaN) is platform-defined; skip instead
		}
		i := int((v - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	return counts
}
