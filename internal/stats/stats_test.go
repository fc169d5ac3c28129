package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeKnownValues(t *testing.T) {
	q := Summarize([]float64{1, 2, 3, 4, 5})
	if q.Min != 1 || q.Max != 5 || q.Median != 3 {
		t.Fatalf("bad summary: %+v", q)
	}
	if !almost(q.Q1, 2) || !almost(q.Q3, 4) {
		t.Fatalf("quartiles: %+v", q)
	}
}

func TestSummarizeInterpolation(t *testing.T) {
	// numpy.percentile([1,2,3,4], 25) == 1.75 with linear interpolation.
	q := Summarize([]float64{1, 2, 3, 4})
	if !almost(q.Q1, 1.75) {
		t.Errorf("Q1 = %v, want 1.75", q.Q1)
	}
	if !almost(q.Median, 2.5) {
		t.Errorf("median = %v, want 2.5", q.Median)
	}
	if !almost(q.Q3, 3.25) {
		t.Errorf("Q3 = %v, want 3.25", q.Q3)
	}
}

func TestSummarizeSingle(t *testing.T) {
	q := Summarize([]float64{7})
	if q.Min != 7 || q.Q1 != 7 || q.Median != 7 || q.Q3 != 7 || q.Max != 7 {
		t.Fatalf("single value summary: %+v", q)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestEmptyInputConsistency(t *testing.T) {
	// Empty input must yield zero values across the package, never a
	// panic: degenerate traces (no sends) reach these through the CLI.
	if q := Summarize(nil); q != (Quartiles{}) {
		t.Errorf("Summarize(nil) = %+v, want zero summary", q)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
	d := EstimateDensity(nil, 8)
	if len(d.Weights) != 8 {
		t.Fatalf("EstimateDensity(nil, 8) has %d weights, want 8", len(d.Weights))
	}
	for i, w := range d.Weights {
		if w != 0 {
			t.Errorf("EstimateDensity(nil) weight %d = %v, want 0", i, w)
		}
	}
}

func TestQuartileOrderingProperty(t *testing.T) {
	// Property: min <= q1 <= median <= q3 <= max, and all quartiles lie
	// within the data range, for arbitrary inputs.
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		q := Summarize(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return q.Min == sorted[0] && q.Max == sorted[len(sorted)-1] &&
			q.Min <= q.Q1 && q.Q1 <= q.Median && q.Median <= q.Q3 && q.Q3 <= q.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vals); !almost(m, 5) {
		t.Errorf("mean = %v, want 5", m)
	}
	if sd := StdDev(vals); !almost(sd, 2) {
		t.Errorf("stddev = %v, want 2", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-input mean/stddev should be 0")
	}
}

func TestEstimateDensityShape(t *testing.T) {
	// Bimodal data: density should peak near both modes.
	var vals []float64
	for i := 0; i < 50; i++ {
		vals = append(vals, 10+float64(i%3))
		vals = append(vals, 100+float64(i%3))
	}
	d := EstimateDensity(vals, 64)
	if d.Lo != 10 || d.Hi != 102 {
		t.Fatalf("range [%v,%v], want [10,102]", d.Lo, d.Hi)
	}
	// The normalized max must be exactly 1.
	max := 0.0
	for _, w := range d.Weights {
		if w < 0 || w > 1 {
			t.Fatalf("weight %v out of [0,1]", w)
		}
		max = math.Max(max, w)
	}
	if !almost(max, 1) {
		t.Fatalf("max weight = %v, want 1", max)
	}
	// The middle of the range (valley between modes) must be lower than
	// both ends.
	mid := d.Weights[32]
	if mid > d.Weights[2] || mid > d.Weights[61] {
		t.Errorf("expected bimodal valley: mid=%v ends=%v,%v", mid, d.Weights[2], d.Weights[61])
	}
}

func TestEstimateDensityConstantInput(t *testing.T) {
	d := EstimateDensity([]float64{5, 5, 5}, 16)
	spike := 0
	for _, w := range d.Weights {
		if w > 0 {
			spike++
		}
	}
	if spike != 1 {
		t.Fatalf("constant input should give a single spike, got %d nonzero bins", spike)
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0, 1, 2, 3, 3.9, 5, -1}, 0, 4, 4)
	// -1 clamps to bin 0; 3, 3.9 and the clamped 5 land in bin 3.
	want := []int{2, 1, 1, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", counts, want)
		}
	}
}

// TestEdgeCaseTable covers the degenerate inputs the visualizer feeds
// this package: single elements, duplicate-heavy samples, and NaNs from
// 0/0 trace arithmetic. Empty-input zero-value behavior must survive
// all of them.
func TestEdgeCaseTable(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		in   []float64
		want Quartiles
	}{
		{"single element", []float64{7}, Quartiles{7, 7, 7, 7, 7}},
		{"duplicate-heavy", []float64{5, 5, 5, 5, 5, 5, 5, 9}, Quartiles{5, 5, 5, 5, 9}},
		{"all duplicates", []float64{3, 3, 3, 3}, Quartiles{3, 3, 3, 3, 3}},
		{"NaN mixed in", []float64{nan, 1, 2, nan, 3}, Quartiles{1, 1.5, 2, 2.5, 3}},
		{"single NaN", []float64{nan}, Quartiles{}},
		{"all NaN", []float64{nan, nan, nan}, Quartiles{}},
		{"NaN first and last", []float64{nan, 4, nan}, Quartiles{4, 4, 4, 4, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Summarize(tc.in); got != tc.want {
				t.Errorf("Summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestMeanStdDevIgnoreNaN(t *testing.T) {
	nan := math.NaN()
	if got := Mean([]float64{nan, 2, 4, nan}); got != 3 {
		t.Errorf("Mean with NaNs = %v, want 3", got)
	}
	if got := Mean([]float64{nan}); got != 0 {
		t.Errorf("Mean(all NaN) = %v, want 0", got)
	}
	if got := StdDev([]float64{nan, 5, 5, 5}); got != 0 {
		t.Errorf("StdDev with NaNs over constant data = %v, want 0", got)
	}
	if got := StdDev([]float64{nan, 5}); got != 0 {
		t.Errorf("StdDev with one real value = %v, want 0", got)
	}
}

func TestEstimateDensityEdgeCases(t *testing.T) {
	nan := math.NaN()
	// NaNs dropped: same result as the clean sample.
	clean := EstimateDensity([]float64{1, 2, 3, 4}, 8)
	dirty := EstimateDensity([]float64{nan, 1, 2, nan, 3, 4}, 8)
	if clean.Lo != dirty.Lo || clean.Hi != dirty.Hi {
		t.Fatalf("density bounds differ: clean [%v,%v] dirty [%v,%v]", clean.Lo, clean.Hi, dirty.Lo, dirty.Hi)
	}
	for i := range clean.Weights {
		if clean.Weights[i] != dirty.Weights[i] {
			t.Fatalf("weight %d: clean %v dirty %v", i, clean.Weights[i], dirty.Weights[i])
		}
	}
	// All NaN degrades to the empty-input all-zero density.
	d := EstimateDensity([]float64{nan, nan}, 8)
	for i, w := range d.Weights {
		if w != 0 {
			t.Fatalf("all-NaN density weight %d = %v, want 0", i, w)
		}
	}
	// Duplicate-heavy single distinct value: unit spike, no NaN weights.
	d = EstimateDensity([]float64{6, 6, 6, 6}, 9)
	for i, w := range d.Weights {
		if math.IsNaN(w) {
			t.Fatalf("spike density weight %d is NaN", i)
		}
		if want := 0.0; i == 4 {
			want = 1
			if w != want {
				t.Fatalf("spike not at center bin: weight[%d] = %v", i, w)
			}
		}
	}
}

func TestHistogramSkipsNaN(t *testing.T) {
	got := Histogram([]float64{math.NaN(), 0.5, math.NaN(), 1.5}, 0, 2, 2)
	if got[0] != 1 || got[1] != 1 {
		t.Errorf("Histogram with NaNs = %v, want [1 1]", got)
	}
}

func TestDropNaNPreservesCleanSlice(t *testing.T) {
	in := []float64{1, 2, 3}
	if out := dropNaN(in); &out[0] != &in[0] {
		t.Error("dropNaN copied a NaN-free slice")
	}
	in2 := []float64{1, math.NaN(), 3}
	out := dropNaN(in2)
	if len(out) != 2 || out[0] != 1 || out[1] != 3 {
		t.Errorf("dropNaN = %v, want [1 3]", out)
	}
	if math.IsNaN(in2[1]) == false {
		t.Error("dropNaN mutated its input")
	}
}

// TestQuartilesStringMatchesFmt: the fmt-free String is byte for byte
// the "%.4g" form it replaced, so violin tooltips did not change.
func TestQuartilesStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e-5, 12345.6, 99995, 5e-324, 1e21}
	for i := 0; i < 20_000; i++ {
		var v [5]float64
		for j := range v {
			v[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-12))
		}
		if i < len(special) {
			v[i%5] = special[i]
		}
		q := Quartiles{v[0], v[1], v[2], v[3], v[4]}
		want := fmt.Sprintf("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g", q.Min, q.Q1, q.Median, q.Q3, q.Max)
		if got := q.String(); got != want {
			t.Fatalf("String() = %q, fmt gives %q", got, want)
		}
	}
}
