package viz

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Bar is the per-PE bar graph of the paper's PAPI plots (Figures 10-11):
// one bar per PE, e.g. total instructions.
type Bar struct {
	// Title heads the plot.
	Title string `json:"title"`
	// YLabel names the value axis (e.g. "PAPI_TOT_INS").
	YLabel string `json:"y_label"`
	// Labels name the bars (PE ids).
	Labels []string `json:"labels"`
	// Values are the bar heights, parallel to Labels.
	Values []int64 `json:"values"`
}

func (b *Bar) validate() error {
	if len(b.Values) == 0 {
		return fmt.Errorf("viz: bar graph needs values")
	}
	if len(b.Labels) != len(b.Values) {
		return fmt.Errorf("viz: %d labels for %d values", len(b.Labels), len(b.Values))
	}
	return nil
}

func (b *Bar) max() int64 {
	var mx int64
	for _, v := range b.Values {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// RenderText writes horizontal bars scaled to the maximum, with values.
func (b *Bar) RenderText(w io.Writer) error {
	if err := b.validate(); err != nil {
		return err
	}
	mx := b.max()
	fmt.Fprintf(w, "%s\n", b.Title)
	if b.YLabel != "" {
		fmt.Fprintf(w, "values: %s (max %s)\n", b.YLabel, formatCount(mx))
	}
	const span = 50
	for i, v := range b.Values {
		n := 0
		if mx > 0 {
			n = int(float64(v) / float64(mx) * span)
		}
		fmt.Fprintf(w, "%-8s %-*s %s\n", b.Labels[i], span, strings.Repeat("#", n), formatCount(v))
	}
	return nil
}

// RenderSVG renders vertical bars (single series: slot-1 blue, rounded
// data ends, 2px gaps, selective direct labels on the extremes).
func (b *Bar) RenderSVG() (string, error) {
	if err := b.validate(); err != nil {
		return "", err
	}
	const (
		plotH   = 220.0
		marginL = 70.0
		marginT = 48.0
		marginB = 40.0
		gap     = 2.0
	)
	n := len(b.Values)
	barW := 22.0
	if n > 24 {
		barW = 12
	}
	width := marginL + float64(n)*barW + 30
	height := marginT + plotH + marginB
	d := newSVG(width, height)
	d.text(marginL, 22, b.Title, colTextPrim, "start", 14)

	mx := b.max()
	if mx == 0 {
		mx = 1
	}
	// Gridlines.
	for k := 0; k <= 4; k++ {
		v := int64(float64(mx) * float64(k) / 4)
		y := marginT + plotH - float64(v)/float64(mx)*plotH
		d.line(marginL-4, y, width-20, y, colGrid, 1)
		d.text(marginL-8, y+4, formatCount(v), colTextSec, "end", 10)
	}
	if b.YLabel != "" {
		d.text(16, marginT+plotH/2, b.YLabel, colTextSec, "middle", 11)
	}

	// Identify extremes for selective direct labels.
	hiIdx := 0
	for i, v := range b.Values {
		if v > b.Values[hiIdx] {
			hiIdx = i
		}
	}
	for i, v := range b.Values {
		x := marginL + float64(i)*barW
		h := float64(v) / float64(mx) * plotH
		y := marginT + plotH - h
		d.roundedRect(x, y, barW-gap, h, 3, colSeries1, d.tip().s(b.Labels[i]).s(": ").d(v))
		if i == hiIdx {
			d.text(x+(barW-gap)/2, y-5, formatCount(v), colTextPrim, "middle", 10)
		}
		if n <= 20 || i%4 == 0 {
			d.text(x+(barW-gap)/2, marginT+plotH+16, b.Labels[i], colTextSec, "middle", 9)
		}
	}
	d.line(marginL-4, marginT+plotH, width-20, marginT+plotH, colTextSec, 1)
	return d.close(), nil
}

// StackedBar is the overall-breakdown plot of Figures 12-13: one bar per
// PE, split into the MAIN / COMM / PROC regimes, in absolute cycles or
// relative shares.
type StackedBar struct {
	// Title heads the plot.
	Title string `json:"title"`
	// YLabel names the value axis ("cycles" or "fraction of total").
	YLabel string `json:"y_label"`
	// Labels name the bars (PE ids).
	Labels []string `json:"labels"`
	// Relative normalizes each bar to sum 1.
	Relative bool `json:"relative"`
	// Series are the stack layers, bottom-up; each must have one value
	// per label.
	Series []Series `json:"series"`
}

// Series is one stack layer.
type Series struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

func (s *StackedBar) validate() error {
	if len(s.Series) == 0 || len(s.Labels) == 0 {
		return fmt.Errorf("viz: stacked bar needs labels and series")
	}
	for _, ser := range s.Series {
		if len(ser.Values) != len(s.Labels) {
			return fmt.Errorf("viz: series %q has %d values for %d labels",
				ser.Name, len(ser.Values), len(s.Labels))
		}
	}
	return nil
}

// barTotals returns per-bar sums.
func (s *StackedBar) barTotals() []int64 {
	totals := make([]int64, len(s.Labels))
	for _, ser := range s.Series {
		for i, v := range ser.Values {
			totals[i] += v
		}
	}
	return totals
}

// RenderText writes per-bar stacked segments with a glyph per series.
func (s *StackedBar) RenderText(w io.Writer) error {
	if err := s.validate(); err != nil {
		return err
	}
	glyphs := []rune{'#', '.', '=', '+', '*', '%'}
	fmt.Fprintf(w, "%s\n", s.Title)
	fmt.Fprintf(w, "legend:")
	for i, ser := range s.Series {
		fmt.Fprintf(w, "  '%c' %s", glyphs[i%len(glyphs)], ser.Name)
	}
	fmt.Fprintln(w)

	totals := s.barTotals()
	var mx int64 = 1
	for _, t := range totals {
		if t > mx {
			mx = t
		}
	}
	const span = 60
	for i, label := range s.Labels {
		fmt.Fprintf(w, "%-8s ", label)
		denom := float64(mx)
		if s.Relative {
			denom = float64(totals[i])
			if denom == 0 {
				denom = 1
			}
		}
		used := 0
		for si, ser := range s.Series {
			n := int(float64(ser.Values[i]) / denom * span)
			fmt.Fprint(w, strings.Repeat(string(glyphs[si%len(glyphs)]), n))
			used += n
		}
		if s.Relative {
			fmt.Fprint(w, strings.Repeat(" ", max(0, span-used)))
			fmt.Fprintf(w, " total=%s", formatCount(totals[i]))
		} else {
			fmt.Fprintf(w, " %s", formatCount(totals[i]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RenderSVG renders vertical stacked bars with fixed-order categorical
// series colors, 2px segment gaps, and a legend.
func (s *StackedBar) RenderSVG() (string, error) {
	if err := s.validate(); err != nil {
		return "", err
	}
	const (
		plotH   = 220.0
		marginL = 70.0
		marginT = 54.0
		marginB = 40.0
		gap     = 2.0
	)
	n := len(s.Labels)
	barW := 22.0
	if n > 24 {
		barW = 12
	}
	width := marginL + float64(n)*barW + 40
	height := marginT + plotH + marginB
	d := newSVG(width, height)
	d.text(marginL, 20, s.Title, colTextPrim, "start", 14)

	// Legend row (always present: >= 2 series).
	lx := marginL
	for i, ser := range s.Series {
		d.rect(lx, 28, 10, 10, categorical(i), nil)
		d.text(lx+14, 37, ser.Name, colTextSec, "start", 10)
		lx += 14 + float64(len(ser.Name))*6 + 16
	}

	totals := s.barTotals()
	var mx int64 = 1
	for _, t := range totals {
		if t > mx {
			mx = t
		}
	}
	for k := 0; k <= 4; k++ {
		frac := float64(k) / 4
		y := marginT + plotH - frac*plotH
		d.line(marginL-4, y, width-20, y, colGrid, 1)
		if s.Relative {
			d.text(marginL-8, y+4, strconv.FormatFloat(frac*100, 'f', 0, 64)+"%", colTextSec, "end", 10)
		} else {
			d.text(marginL-8, y+4, formatCount(int64(frac*float64(mx))), colTextSec, "end", 10)
		}
	}
	if s.YLabel != "" {
		d.text(16, marginT+plotH/2, s.YLabel, colTextSec, "middle", 11)
	}

	for i, label := range s.Labels {
		x := marginL + float64(i)*barW
		denom := float64(mx)
		if s.Relative {
			denom = float64(totals[i])
			if denom == 0 {
				denom = 1
			}
		}
		y := marginT + plotH
		for si, ser := range s.Series {
			h := float64(ser.Values[i]) / denom * plotH
			if h <= 0 {
				continue
			}
			y -= h
			segH := h - gap
			if segH < 0.5 {
				segH = h // keep hairline segments visible
			}
			d.rect(x, y, barW-gap, segH, categorical(si),
				d.tip().s(label).s(" ").s(ser.Name).s(": ").d(ser.Values[i]))
		}
		if n <= 20 || i%4 == 0 {
			d.text(x+(barW-gap)/2, marginT+plotH+16, label, colTextSec, "middle", 9)
		}
	}
	d.line(marginL-4, marginT+plotH, width-20, marginT+plotH, colTextSec, 1)
	return d.close(), nil
}
