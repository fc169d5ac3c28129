package viz

import (
	"strings"
	"testing"
)

func testMatrix() [][]int64 {
	return [][]int64{
		{5, 100, 0, 1},
		{2, 0, 30, 4},
		{0, 7, 0, 900},
		{1, 1, 1, 1},
	}
}

func TestHeatmapTextContainsTotals(t *testing.T) {
	h := Heatmap{Title: "logical trace", Cells: testMatrix(), Totals: true}
	var b strings.Builder
	if err := h.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "logical trace") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "recv") || !strings.Contains(out, "send") {
		t.Error("missing totals gutters")
	}
	if !strings.Contains(out, "max cell = 900") {
		t.Errorf("missing max annotation:\n%s", out)
	}
}

func TestHeatmapValidation(t *testing.T) {
	h := Heatmap{Cells: nil}
	if err := h.RenderText(&strings.Builder{}); err == nil {
		t.Fatal("expected error for empty matrix")
	}
	h2 := Heatmap{Cells: [][]int64{{1, 2}, {3}}}
	if _, err := h2.RenderSVG(); err == nil {
		t.Fatal("expected error for ragged matrix")
	}
}

func TestHeatmapSVGWellFormed(t *testing.T) {
	h := Heatmap{Title: "physical", Cells: testMatrix(), Totals: true}
	svg, err := h.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	// 16 cells + 8 totals cells must each carry a tooltip.
	if got := strings.Count(svg, "<title>"); got < 24 {
		t.Errorf("only %d tooltips, want >= 24", got)
	}
	if !strings.Contains(svg, "PE 2 -&gt; PE 3: 900 sends") {
		t.Error("missing cell tooltip content")
	}
}

func TestHeatmapZeroCellsUseSurface(t *testing.T) {
	h := Heatmap{Title: "t", Cells: [][]int64{{0, 1}, {1, 0}}}
	svg, err := h.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, colSurface) {
		t.Error("zero cells should render as surface color")
	}
}

func TestViolinText(t *testing.T) {
	v := Violin{
		Title:  "Figure 5",
		YLabel: "messages",
		Groups: []ViolinGroup{
			{Label: "cyclic sends", Values: []float64{10, 20, 30, 600}},
			{Label: "range sends", Values: []float64{90, 100, 110, 120}},
		},
	}
	var b strings.Builder
	if err := v.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 5", "cyclic sends", "range sends", "max=600"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestViolinSVG(t *testing.T) {
	v := Violin{
		Title: "violin",
		Groups: []ViolinGroup{
			{Label: "a", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
			{Label: "b", Values: []float64{4, 4, 4, 4, 5, 5, 5, 5}},
		},
	}
	svg, err := v.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<polygon") != 2 {
		t.Error("expected two violin bodies")
	}
	if strings.Count(svg, "<circle") < 4 {
		t.Error("expected median dots and outlier markers")
	}
}

func TestViolinValidation(t *testing.T) {
	v := Violin{Groups: []ViolinGroup{{Label: "x"}}}
	if err := v.RenderText(&strings.Builder{}); err == nil {
		t.Fatal("expected error for empty group")
	}
	v2 := Violin{}
	if _, err := v2.RenderSVG(); err == nil {
		t.Fatal("expected error for no groups")
	}
}

func TestBarText(t *testing.T) {
	b := Bar{
		Title: "Figure 10", YLabel: "PAPI_TOT_INS",
		Labels: []string{"PE0", "PE1"},
		Values: []int64{1000, 250},
	}
	var sb strings.Builder
	if err := b.RenderText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "PE0") || !strings.Contains(out, "1.0k") {
		t.Errorf("bad bar text:\n%s", out)
	}
	// PE0's bar must be visibly longer than PE1's.
	lines := strings.Split(out, "\n")
	var len0, len1 int
	for _, l := range lines {
		if strings.HasPrefix(l, "PE0") {
			len0 = strings.Count(l, "#")
		}
		if strings.HasPrefix(l, "PE1") {
			len1 = strings.Count(l, "#")
		}
	}
	if len0 <= len1 {
		t.Errorf("bar lengths: PE0=%d PE1=%d", len0, len1)
	}
}

func TestBarSVGDirectLabelsExtreme(t *testing.T) {
	b := Bar{
		Title:  "papi",
		Labels: []string{"0", "1", "2"},
		Values: []int64{10, 5000, 20},
	}
	svg, err := b.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "5.0k") {
		t.Error("maximum bar should carry a direct label")
	}
	if !strings.Contains(svg, colSeries1) {
		t.Error("single series should use categorical slot 1")
	}
}

func TestBarValidation(t *testing.T) {
	b := Bar{Labels: []string{"a"}, Values: nil}
	if err := b.RenderText(&strings.Builder{}); err == nil {
		t.Fatal("expected error for empty values")
	}
	b2 := Bar{Labels: []string{"a", "b"}, Values: []int64{1}}
	if _, err := b2.RenderSVG(); err == nil {
		t.Fatal("expected error for label/value mismatch")
	}
}

func TestStackedBarText(t *testing.T) {
	s := StackedBar{
		Title:  "overall",
		Labels: []string{"PE0", "PE1"},
		Series: []Series{
			{Name: "MAIN", Values: []int64{10, 20}},
			{Name: "COMM", Values: []int64{80, 60}},
			{Name: "PROC", Values: []int64{10, 20}},
		},
	}
	var b strings.Builder
	if err := s.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"MAIN", "COMM", "PROC", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestStackedBarRelativeText(t *testing.T) {
	s := StackedBar{
		Title:    "relative",
		Labels:   []string{"PE0"},
		Relative: true,
		Series: []Series{
			{Name: "MAIN", Values: []int64{25}},
			{Name: "COMM", Values: []int64{75}},
		},
	}
	var b strings.Builder
	if err := s.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// 25% of the 60-char span = 15 '#', 75% = 45 '.' on the PE0 line
	// (the legend line carries one of each glyph itself).
	var barLine string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "PE0") {
			barLine = l
		}
	}
	if strings.Count(barLine, "#") != 15 || strings.Count(barLine, ".") != 45 {
		t.Errorf("relative segments wrong:\n%s", out)
	}
}

func TestStackedBarSVGLegendAndColors(t *testing.T) {
	s := StackedBar{
		Title:  "fig12",
		Labels: []string{"0", "1", "2"},
		Series: []Series{
			{Name: "MAIN", Values: []int64{1, 2, 3}},
			{Name: "COMM", Values: []int64{4, 5, 6}},
			{Name: "PROC", Values: []int64{7, 8, 9}},
		},
	}
	svg, err := s.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{colSeries1, colSeries2, colSeries3} {
		if !strings.Contains(svg, col) {
			t.Errorf("missing categorical color %s", col)
		}
	}
	for _, name := range []string{"MAIN", "COMM", "PROC"} {
		if !strings.Contains(svg, name) {
			t.Errorf("missing legend entry %s", name)
		}
	}
}

func TestStackedBarValidation(t *testing.T) {
	s := StackedBar{Labels: []string{"a"}, Series: []Series{{Name: "x", Values: []int64{1, 2}}}}
	if err := s.RenderText(&strings.Builder{}); err == nil {
		t.Fatal("expected error for ragged series")
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		999:           "999",
		1500:          "1.5k",
		25000:         "25k",
		3_200_000:     "3.2M",
		7_000_000_000: "7.0G",
	}
	for in, want := range cases {
		if got := formatCount(in); got != want {
			t.Errorf("formatCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestLogScaleMonotone(t *testing.T) {
	prev := -1.0
	for _, v := range []int64{0, 1, 5, 50, 500, 1000} {
		s := logScale(v, 1000)
		if s < prev {
			t.Fatalf("logScale not monotone at %d", v)
		}
		if s < 0 || s > 1 {
			t.Fatalf("logScale(%d) = %v out of [0,1]", v, s)
		}
		prev = s
	}
	if logScale(1000, 1000) != 1 {
		t.Error("max must map to 1")
	}
}

func TestEscape(t *testing.T) {
	if got := string(appendEscaped([]byte("x"), `a<b&"c">`)); got != "xa&lt;b&amp;&quot;c&quot;&gt;" {
		t.Errorf("escape = %q", got)
	}
}

func TestRampColorEndpoints(t *testing.T) {
	if rampColor(0) != colSurface {
		t.Error("zero should be surface")
	}
	if rampColor(1) != sequentialRamp[len(sequentialRamp)-1] {
		t.Error("one should be darkest step")
	}
	if rampColor(2) != sequentialRamp[len(sequentialRamp)-1] {
		t.Error("overflow should clamp")
	}
}
