package viz

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WhatIf is the causal-projection comparison plot: for each overall
// regime (and the makespan), a baseline bar and a projected bar side by
// side with the delta called out. It is the visual form of a
// whatif.Report (core.WhatIfPlot builds one).
type WhatIf struct {
	// Title heads the plot; Subtitle (optional) names the perturbation.
	Title    string
	Subtitle string
	// Rows are the compared quantities, rendered top to bottom.
	Rows []WhatIfRow
}

// WhatIfRow is one compared quantity.
type WhatIfRow struct {
	Label     string
	Baseline  int64
	Projected int64
}

func (p *WhatIf) validate() error {
	if len(p.Rows) == 0 {
		return fmt.Errorf("viz: what-if plot needs rows")
	}
	return nil
}

func (p *WhatIf) max() int64 {
	var mx int64 = 1
	for _, r := range p.Rows {
		if r.Baseline > mx {
			mx = r.Baseline
		}
		if r.Projected > mx {
			mx = r.Projected
		}
	}
	return mx
}

// deltaLabel renders the projected-minus-baseline change compactly,
// with its sign and percentage.
func deltaLabel(base, proj int64) string {
	d := proj - base
	if d == 0 {
		return "±0"
	}
	sign := "+"
	if d < 0 {
		sign = "-"
		d = -d
	}
	if base == 0 {
		return sign + formatCount(d)
	}
	return sign + formatCount(d) + " (" + sign + strconv.FormatFloat(100*float64(d)/float64(base), 'f', 1, 64) + "%)"
}

// RenderText writes paired horizontal bars per row with delta labels.
func (p *WhatIf) RenderText(w io.Writer) error {
	if err := p.validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", p.Title)
	if p.Subtitle != "" {
		fmt.Fprintf(w, "%s\n", p.Subtitle)
	}
	fmt.Fprintf(w, "legend:  '#' baseline  '>' projected\n")
	mx := p.max()
	const span = 50
	for _, r := range p.Rows {
		nb := int(float64(r.Baseline) / float64(mx) * span)
		np := int(float64(r.Projected) / float64(mx) * span)
		fmt.Fprintf(w, "%-10s %-*s %s\n", r.Label, span, strings.Repeat("#", nb), formatCount(r.Baseline))
		fmt.Fprintf(w, "%-10s %-*s %s  %s\n", "", span, strings.Repeat(">", np), formatCount(r.Projected), deltaLabel(r.Baseline, r.Projected))
	}
	return nil
}

// RenderSVG renders paired horizontal bars: baseline in the neutral
// sequential ramp, projected in slot-1 blue when it shrinks and slot-6
// red when it grows, with the delta printed at the bar end.
func (p *WhatIf) RenderSVG() (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	const (
		marginL = 96.0
		marginT = 56.0
		rowH    = 44.0
		barH    = 14.0
		plotW   = 420.0
	)
	height := marginT + float64(len(p.Rows))*rowH + 24
	width := marginL + plotW + 150
	d := newSVG(width, height)
	d.text(marginL, 22, p.Title, colTextPrim, "start", 14)
	if p.Subtitle != "" {
		d.text(marginL, 38, p.Subtitle, colTextSec, "start", 11)
	}
	mx := p.max()
	for i, r := range p.Rows {
		y := marginT + float64(i)*rowH
		d.text(marginL-8, y+barH, r.Label, colTextSec, "end", 11)
		wb := float64(r.Baseline) / float64(mx) * plotW
		wp := float64(r.Projected) / float64(mx) * plotW
		projCol := colSeries1
		if r.Projected > r.Baseline {
			projCol = colSeries6
		}
		d.roundedRect(marginL, y, wb, barH, 2, sequentialRamp[4], d.tip().s(r.Label).s(" baseline: ").d(r.Baseline))
		d.roundedRect(marginL, y+barH+3, wp, barH, 2, projCol, d.tip().s(r.Label).s(" projected: ").d(r.Projected))
		d.text(marginL+wb+6, y+barH-2, formatCount(r.Baseline), colTextSec, "start", 10)
		d.text(marginL+wp+6, y+2*barH+2, formatCount(r.Projected)+"  "+deltaLabel(r.Baseline, r.Projected),
			colTextPrim, "start", 10)
	}
	return d.close(), nil
}

// Ranked is the bottleneck-ranking plot: horizontal bars of a
// dimensionless score (avg handler time / avg activation interval),
// largest first, each with a detail annotation.
type Ranked struct {
	// Title heads the plot; XLabel names the score.
	Title  string
	XLabel string
	// Rows must already be sorted most-severe first.
	Rows []RankedRow
}

// RankedRow is one ranked entry.
type RankedRow struct {
	Label string
	Score float64
	// Detail annotates the bar (e.g. "1.2k activations, avg 350 cyc").
	Detail string
}

func (p *Ranked) validate() error {
	if len(p.Rows) == 0 {
		return fmt.Errorf("viz: ranked plot needs rows")
	}
	for _, r := range p.Rows {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) || r.Score < 0 {
			return fmt.Errorf("viz: ranked row %q has invalid score %v", r.Label, r.Score)
		}
	}
	return nil
}

func (p *Ranked) max() float64 {
	mx := 0.0
	for _, r := range p.Rows {
		if r.Score > mx {
			mx = r.Score
		}
	}
	if mx == 0 {
		mx = 1
	}
	return mx
}

// RenderText writes one scaled bar per row with the score and detail.
func (p *Ranked) RenderText(w io.Writer) error {
	if err := p.validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", p.Title)
	if p.XLabel != "" {
		fmt.Fprintf(w, "score: %s\n", p.XLabel)
	}
	mx := p.max()
	const span = 50
	for _, r := range p.Rows {
		n := int(r.Score / mx * span)
		fmt.Fprintf(w, "%-10s %-*s %.3f", r.Label, span, strings.Repeat("#", n), r.Score)
		if r.Detail != "" {
			fmt.Fprintf(w, "  %s", r.Detail)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RenderSVG renders horizontal score bars on the sequential ramp (the
// score is a magnitude, not a category), darkest for the top entry.
func (p *Ranked) RenderSVG() (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	const (
		marginL = 96.0
		marginT = 48.0
		rowH    = 26.0
		barH    = 16.0
		plotW   = 380.0
	)
	height := marginT + float64(len(p.Rows))*rowH + 24
	width := marginL + plotW + 220
	d := newSVG(width, height)
	d.text(marginL, 22, p.Title, colTextPrim, "start", 14)
	if p.XLabel != "" {
		d.text(marginL, 38, p.XLabel, colTextSec, "start", 11)
	}
	mx := p.max()
	for i, r := range p.Rows {
		y := marginT + float64(i)*rowH
		bw := r.Score / mx * plotW
		d.text(marginL-8, y+barH-3, r.Label, colTextSec, "end", 11)
		d.roundedRect(marginL, y, bw, barH, 2, rampColor(r.Score/mx), d.tip().s(r.Label).s(": ").f(r.Score, 4))
		ann := strconv.FormatFloat(r.Score, 'f', 3, 64)
		if r.Detail != "" {
			ann += "  " + r.Detail
		}
		d.text(marginL+bw+6, y+barH-3, ann, colTextPrim, "start", 10)
	}
	return d.close(), nil
}
