package viz

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// GroupedBar renders several series side by side per label: the shape of
// ActorProf's -lp output, which shows up to four PAPI counters for every
// PE in one run (four being PAPI's concurrent-event limit).
type GroupedBar struct {
	// Title heads the plot.
	Title string
	// YLabel names the value axis.
	YLabel string
	// Labels name the groups (PE ids).
	Labels []string
	// Series are the grouped measures; at most 6 (the categorical
	// palette's fixed slots), each with one value per label.
	Series []Series
	// LogHint, when true, annotates that magnitudes span decades (the
	// renderer still uses a linear scale per the paper's plots, but
	// direct-labels the extremes).
	LogHint bool
}

func (g *GroupedBar) validate() error {
	if len(g.Series) == 0 || len(g.Labels) == 0 {
		return fmt.Errorf("viz: grouped bar needs labels and series")
	}
	if len(g.Series) > 6 {
		return fmt.Errorf("viz: grouped bar supports at most 6 series, got %d (fold extras into 'Other')",
			len(g.Series))
	}
	for _, s := range g.Series {
		if len(s.Values) != len(g.Labels) {
			return fmt.Errorf("viz: series %q has %d values for %d labels",
				s.Name, len(s.Values), len(g.Labels))
		}
	}
	return nil
}

// RenderText writes one row per (label, series) pair, series indented
// under their group, bars normalized per series so differently-scaled
// counters remain readable.
func (g *GroupedBar) RenderText(w io.Writer) error {
	if err := g.validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", g.Title)
	if g.YLabel != "" {
		fmt.Fprintf(w, "values: %s (bars normalized per series)\n", g.YLabel)
	}
	maxes := make([]int64, len(g.Series))
	for si, s := range g.Series {
		for _, v := range s.Values {
			if v > maxes[si] {
				maxes[si] = v
			}
		}
	}
	const span = 40
	for li, label := range g.Labels {
		fmt.Fprintf(w, "%s\n", label)
		for si, s := range g.Series {
			n := 0
			if maxes[si] > 0 {
				n = int(float64(s.Values[li]) / float64(maxes[si]) * span)
			}
			fmt.Fprintf(w, "  %-14s %-*s %s\n", s.Name, span, strings.Repeat("#", n),
				formatCount(s.Values[li]))
		}
	}
	return nil
}

// RenderSVG renders vertical grouped bars with fixed-order categorical
// colors and a legend. Each series is normalized to its own maximum
// (counters differ by orders of magnitude), with the true values in the
// tooltips and the per-series maxima in the legend.
func (g *GroupedBar) RenderSVG() (string, error) {
	if err := g.validate(); err != nil {
		return "", err
	}
	const (
		plotH   = 220.0
		marginL = 56.0
		marginT = 58.0
		marginB = 40.0
		gap     = 2.0
	)
	nGroups := len(g.Labels)
	nSeries := len(g.Series)
	barW := 9.0
	groupW := float64(nSeries)*barW + 8
	width := marginL + float64(nGroups)*groupW + 40
	height := marginT + plotH + marginB
	d := newSVG(width, height)
	d.text(marginL, 20, g.Title, colTextPrim, "start", 14)

	maxes := make([]int64, nSeries)
	for si, s := range g.Series {
		for _, v := range s.Values {
			if v > maxes[si] {
				maxes[si] = v
			}
		}
		if maxes[si] == 0 {
			maxes[si] = 1
		}
	}

	// Legend with per-series maxima (each series has its own scale).
	lx := marginL
	for si, s := range g.Series {
		d.rect(lx, 30, 10, 10, categorical(si), nil)
		label := s.Name + " (max " + formatCount(maxes[si]) + ")"
		d.text(lx+14, 39, label, colTextSec, "start", 10)
		lx += 14 + float64(len(label))*6 + 14
	}

	for k := 0; k <= 4; k++ {
		y := marginT + plotH - float64(k)/4*plotH
		d.line(marginL-4, y, width-20, y, colGrid, 1)
		d.text(marginL-8, y+4, strconv.Itoa(k*25)+"%", colTextSec, "end", 10)
	}
	if g.YLabel != "" {
		d.text(14, marginT+plotH/2, g.YLabel, colTextSec, "middle", 11)
	}

	for li, label := range g.Labels {
		gx := marginL + float64(li)*groupW
		for si, s := range g.Series {
			v := s.Values[li]
			h := float64(v) / float64(maxes[si]) * plotH
			x := gx + float64(si)*barW
			d.roundedRect(x, marginT+plotH-h, barW-gap, h, 2, categorical(si),
				d.tip().s(label).s(" ").s(s.Name).s(": ").d(v))
		}
		if nGroups <= 20 || li%4 == 0 {
			d.text(gx+groupW/2-4, marginT+plotH+16, label, colTextSec, "middle", 9)
		}
	}
	d.line(marginL-4, marginT+plotH, width-20, marginT+plotH, colTextSec, 1)
	return d.close(), nil
}
