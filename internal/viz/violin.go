package viz

import (
	"fmt"
	"io"
	"strings"

	"actorprof/internal/stats"
)

// Violin is the quartile violin plot of the paper's Figures 5 and 7: one
// violin per group (e.g. "cyclic sends", "range recvs"), each showing the
// smoothed distribution of per-PE totals, the interquartile bar, the
// median dot, and the extreme outlier at the top.
type Violin struct {
	// Title heads the plot.
	Title string
	// YLabel names the value axis (e.g. "messages per PE").
	YLabel string
	// Groups are the violins, rendered left to right.
	Groups []ViolinGroup
}

// ViolinGroup is one violin: a label and its sample values (one per PE).
type ViolinGroup struct {
	Label  string
	Values []float64
}

func (v *Violin) validate() error {
	if len(v.Groups) == 0 {
		return fmt.Errorf("viz: violin needs at least one group")
	}
	for _, g := range v.Groups {
		if len(g.Values) == 0 {
			return fmt.Errorf("viz: violin group %q has no values", g.Label)
		}
	}
	return nil
}

// RenderText writes the plot as terminal art: per group, a horizontal
// density silhouette plus the five-number summary.
func (v *Violin) RenderText(w io.Writer) error {
	if err := v.validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", v.Title)
	if v.YLabel != "" {
		fmt.Fprintf(w, "values: %s\n", v.YLabel)
	}
	const bins = 24
	for _, g := range v.Groups {
		q := stats.Summarize(g.Values)
		d := stats.EstimateDensity(g.Values, bins)
		fmt.Fprintf(w, "%-24s ", g.Label)
		for _, wgt := range d.Weights {
			fmt.Fprintf(w, "%c", intensityRune(wgt))
		}
		fmt.Fprintf(w, "  [%s]\n", q)
	}
	return nil
}

// RenderSVG renders vertical violins with mirrored density bodies,
// quartile bars, white median dots, and a shared value axis - matching
// the paper's matplotlib violins.
func (v *Violin) RenderSVG() (string, error) {
	if err := v.validate(); err != nil {
		return "", err
	}
	const (
		plotH    = 260.0
		violinW  = 84.0
		marginL  = 70.0
		marginT  = 48.0
		marginB  = 56.0
		bodyBins = 48
	)
	width := marginL + float64(len(v.Groups))*violinW + 30
	height := marginT + plotH + marginB
	d := newSVG(width, height)
	d.text(marginL, 22, v.Title, colTextPrim, "start", 14)

	// Shared scale across groups so the violins compare.
	lo, hi := v.Groups[0].Values[0], v.Groups[0].Values[0]
	for _, g := range v.Groups {
		for _, val := range g.Values {
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	yOf := func(val float64) float64 {
		return marginT + plotH - (val-lo)/(hi-lo)*plotH
	}

	// Axis with a few gridlines.
	for k := 0; k <= 4; k++ {
		val := lo + (hi-lo)*float64(k)/4
		y := yOf(val)
		d.line(marginL-4, y, width-20, y, colGrid, 1)
		d.text(marginL-8, y+4, formatCount(int64(val)), colTextSec, "end", 10)
	}
	if v.YLabel != "" {
		d.text(16, marginT+plotH/2, v.YLabel, colTextSec, "middle", 11)
	}

	for gi, g := range v.Groups {
		cx := marginL + float64(gi)*violinW + violinW/2
		den := stats.EstimateDensity(g.Values, bodyBins)
		span := den.Hi - den.Lo
		if span == 0 {
			span = 1
		}
		// Mirrored polygon: right side top-to-bottom, left side back up.
		var pts []float64
		maxHalf := violinW * 0.38
		for i := bodyBins - 1; i >= 0; i-- {
			val := den.Lo + span*float64(i)/float64(bodyBins-1)
			pts = append(pts, cx+den.Weights[i]*maxHalf, yOf(val))
		}
		for i := 0; i < bodyBins; i++ {
			val := den.Lo + span*float64(i)/float64(bodyBins-1)
			pts = append(pts, cx-den.Weights[i]*maxHalf, yOf(val))
		}
		d.polygon(pts, sequentialRamp[4])

		q := stats.Summarize(g.Values)
		// Whiskers (min..max), IQR bar, median dot; the max point is the
		// paper's "farthest outlier on top of the colored shape".
		d.line(cx, yOf(q.Min), cx, yOf(q.Max), colViolinQ, 1.5)
		d.roundedRect(cx-3, yOf(q.Q3), 6, yOf(q.Q1)-yOf(q.Q3), 2, colViolinQ,
			q.AppendTo(d.tip().s(g.Label).s(": ")))
		d.circle(cx, yOf(q.Median), 3.4, colViolinDot)
		d.circle(cx, yOf(q.Max), 2.2, colViolinQ)

		// Group label, wrapped onto two lines when long.
		label := g.Label
		if len(label) > 14 {
			if sp := strings.LastIndex(label[:14], " "); sp > 0 {
				d.text(cx, marginT+plotH+30, label[sp+1:], colTextSec, "middle", 10)
				label = label[:sp]
			}
		}
		d.text(cx, marginT+plotH+18, label, colTextSec, "middle", 10)
	}
	return d.close(), nil
}
