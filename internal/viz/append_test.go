package viz

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAppendedNumbersMatchFmt: the SVG writer's number appender prints
// every float64 exactly as fmt's %.1f and %.0f did, so no coordinate of
// any document moved when fmt left the primitives.
func TestAppendedNumbersMatchFmt(t *testing.T) {
	d := &svgDoc{}
	check := func(v float64) {
		for prec, verb := range []string{"%.0f", "%.1f"} {
			if got, want := string(d.num(v, prec)), fmt.Sprintf(verb, v); got != want {
				t.Fatalf("%s of %v (bits %#x): appended %q, fmt %q", verb, v, math.Float64bits(v), got, want)
			}
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.25, 2.5, 0.05, 0.15, 0.35, 1.45, 0.5, 1.5, -0.5, -2.5, -0.04, 0.95, 9.95, 99.95,
		5e-324, -5e-324, 2.2250738585072009e-308, 1e21, -1e21, 1e20, 1e300, math.MaxFloat64,
		1, -1, 17, 1e15 - 1, 1e15, 1e15 + 1, 1 << 53, 1<<53 + 2, -(1 << 60),
	} {
		check(v)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1_000_000; i++ {
		var v float64
		switch i % 16 {
		case 0: // any bit pattern: NaNs, infinities, subnormals included
			v = math.Float64frombits(rng.Uint64())
		case 1, 2, 3: // near the rounding ties of one decimal
			v = float64(rng.Intn(200_000))/20 + (rng.Float64()-0.5)*1e-9
		case 4, 5, 6: // any magnitude, either sign
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		case 7, 8: // whole numbers, either sign, around the integer path's bound
			v = math.Trunc(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17))))
		default: // plot coordinates
			v = rng.Float64() * 2000
		}
		check(v)
	}
}

func heatmapOf(n int) *Heatmap {
	return &Heatmap{Title: "alloc guard", Cells: benchMatrix(n), Totals: true}
}

// TestHeatmapSVGAllocsConstant: rendering a heatmap allocates a small
// constant - the document string and the totals - however many cells
// it draws: a titled cell costs no allocation.
func TestHeatmapSVGAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	allocs := func(n int) float64 {
		h := heatmapOf(n)
		h.RenderSVG() // warm the document pool
		return testing.AllocsPerRun(20, func() {
			if _, err := h.RenderSVG(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(32)
	t.Logf("%.0f allocs at 8 PEs, %.0f at 32", small, large)
	if large > 5 || large != small {
		t.Errorf("heatmap SVG allocates %.0f times at 8 PEs and %.0f at 32; want the same constant, at most 5", small, large)
	}
}

// TestRenderSVGToWritesOnce: RenderSVGTo hands the writer the whole
// document in one Write, the same bytes RenderSVG returns.
func TestRenderSVGToWritesOnce(t *testing.T) {
	h := heatmapOf(16)
	want, err := h.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	var w countingWriter
	if err := RenderSVGTo(h, &w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.buf.String() != want {
		t.Errorf("RenderSVGTo made %d writes of %d bytes; want 1 write of the %d-byte document", w.writes, w.buf.Len(), len(want))
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func BenchmarkRenderHeatmapSVG(b *testing.B) {
	h := heatmapOf(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.RenderSVG(); err != nil {
			b.Fatal(err)
		}
	}
}
