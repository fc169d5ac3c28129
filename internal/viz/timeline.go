package viz

import (
	"fmt"
	"io"
	"strings"
)

// TimelineBucket is one fixed-width time bucket of the physical-trace
// activity profile: the half-open interval [T0, T1) with the number of
// transfers and buffer bytes that landed in it. The buckets come from
// the trace time-index pyramid (one level of detail), so a Timeline is
// bounded in size no matter how large the underlying trace is.
type TimelineBucket struct {
	T0    int64
	T1    int64
	Count int64
	Bytes int64
}

// Timeline is the windowed activity plot behind "time-travel"
// navigation: transfer volume over the trace clock, at one pyramid
// level of detail.
type Timeline struct {
	// Title heads the plot.
	Title string
	// XLabel names the time axis's clock domain ("cycles" or
	// "sequence").
	XLabel string
	// Buckets are the equal-width time buckets, ascending in time.
	Buckets []TimelineBucket
}

func (tl *Timeline) validate() error {
	if len(tl.Buckets) == 0 {
		return fmt.Errorf("viz: timeline needs buckets")
	}
	for i, b := range tl.Buckets {
		if b.T1 <= b.T0 {
			return fmt.Errorf("viz: timeline bucket %d spans [%d, %d)", i, b.T0, b.T1)
		}
	}
	return nil
}

// foldTo folds the buckets into at most n columns (summing counts and
// bytes) so the text renderer stays terminal-sized at any LOD.
func (tl *Timeline) foldTo(n int) []TimelineBucket {
	if len(tl.Buckets) <= n {
		return tl.Buckets
	}
	per := (len(tl.Buckets) + n - 1) / n
	out := make([]TimelineBucket, 0, n)
	for i := 0; i < len(tl.Buckets); i += per {
		j := i + per
		if j > len(tl.Buckets) {
			j = len(tl.Buckets)
		}
		f := TimelineBucket{T0: tl.Buckets[i].T0, T1: tl.Buckets[j-1].T1}
		for _, b := range tl.Buckets[i:j] {
			f.Count += b.Count
			f.Bytes += b.Bytes
		}
		out = append(out, f)
	}
	return out
}

// RenderText writes one horizontal bar per (folded) time bucket.
func (tl *Timeline) RenderText(w io.Writer) error {
	if err := tl.validate(); err != nil {
		return err
	}
	rows := tl.foldTo(32)
	var mx int64 = 1
	for _, b := range rows {
		if b.Count > mx {
			mx = b.Count
		}
	}
	fmt.Fprintf(w, "%s\n", tl.Title)
	fmt.Fprintf(w, "time axis: %s\n", tl.XLabel)
	const span = 50
	for _, b := range rows {
		n := int(float64(b.Count) / float64(mx) * span)
		fmt.Fprintf(w, "%12d %-*s %s (%s B)\n", b.T0, span, strings.Repeat("#", n),
			formatCount(b.Count), formatCount(b.Bytes))
	}
	return nil
}

// RenderSVG renders the activity profile as contiguous vertical bars
// over the time axis, slot-1 blue, with count/bytes tooltips per bucket.
func (tl *Timeline) RenderSVG() (string, error) {
	if err := tl.validate(); err != nil {
		return "", err
	}
	const (
		plotW   = 640.0
		plotH   = 180.0
		marginL = 70.0
		marginT = 48.0
		marginB = 40.0
	)
	cols := tl.foldTo(320)
	width := marginL + plotW + 30
	height := marginT + plotH + marginB
	d := newSVG(width, height)
	d.text(marginL, 22, tl.Title, colTextPrim, "start", 14)

	var mx int64 = 1
	for _, b := range cols {
		if b.Count > mx {
			mx = b.Count
		}
	}
	for k := 0; k <= 4; k++ {
		v := int64(float64(mx) * float64(k) / 4)
		y := marginT + plotH - float64(v)/float64(mx)*plotH
		d.line(marginL-4, y, marginL+plotW, y, colGrid, 1)
		d.text(marginL-8, y+4, formatCount(v), colTextSec, "end", 10)
	}
	d.text(16, marginT+plotH/2, "transfers", colTextSec, "middle", 11)

	t0, t1 := cols[0].T0, cols[len(cols)-1].T1
	span := float64(t1 - t0)
	if span <= 0 {
		span = 1
	}
	for _, b := range cols {
		x := marginL + float64(b.T0-t0)/span*plotW
		bw := float64(b.T1-b.T0) / span * plotW
		if bw < 0.5 {
			bw = 0.5
		}
		h := float64(b.Count) / float64(mx) * plotH
		if h <= 0 {
			continue
		}
		d.rect(x, marginT+plotH-h, bw, h, colSeries1,
			fmt.Sprintf("[%d, %d): %d transfers, %d B", b.T0, b.T1, b.Count, b.Bytes))
	}
	d.line(marginL-4, marginT+plotH, marginL+plotW, marginT+plotH, colTextSec, 1)
	d.text(marginL, marginT+plotH+18, fmt.Sprintf("%d", t0), colTextSec, "start", 10)
	d.text(marginL+plotW, marginT+plotH+18, fmt.Sprintf("%d", t1), colTextSec, "end", 10)
	d.text(marginL+plotW/2, marginT+plotH+18, tl.XLabel, colTextSec, "middle", 10)
	return d.String(), nil
}
