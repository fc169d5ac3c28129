// Package viz renders ActorProf's visualizations - heatmaps, quartile
// violin plots, bar graphs, and stacked bar graphs - as both ANSI
// terminal text and standalone SVG documents. It replaces the paper's
// numpy/pandas/matplotlib scripts (logical.py, physical.py, papi.py,
// Overall.py) with pure-Go renderers.
//
// Color usage follows a validated accessible palette: a single-hue blue
// ramp (light to dark) for sequential magnitude (heatmap cells, violin
// bodies), fixed-order categorical slots for the stacked-bar regimes,
// and neutral text tokens for all labels. Every SVG mark carries a
// native <title> tooltip.
package viz

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Plot is any renderer in this package: terminal text to a writer plus a
// standalone SVG document.
type Plot interface {
	RenderText(w io.Writer) error
	RenderSVG() (string, error)
}

// RenderSVGTo renders p's SVG document and writes it to w in one Write.
// This is the write side used by callers that stream plots over a
// network or into a cache (actorprofd) instead of holding the document
// as a string.
func RenderSVGTo(p Plot, w io.Writer) error {
	doc, err := p.RenderSVG()
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, doc)
	return err
}

// Palette roles (light surface), from the validated reference palette.
const (
	colSurface   = "#fcfcfb"
	colTextPrim  = "#0b0b0b"
	colTextSec   = "#52514e"
	colGrid      = "#e4e3df"
	colSeries1   = "#2a78d6" // categorical slot 1: blue
	colSeries2   = "#1baf7a" // slot 2: aqua
	colSeries3   = "#eda100" // slot 3: yellow
	colSeries4   = "#008300" // slot 4: green
	colSeries5   = "#4a3aa7" // slot 5: violet
	colSeries6   = "#e34948" // slot 6: red
	colViolinQ   = "#0d366b" // quartile bar: darkest sequential step
	colViolinDot = "#ffffff" // median dot
)

// categorical returns the fixed-order categorical slot color for series
// index i; beyond the defined slots it folds to gray (callers should
// group such series as "Other").
func categorical(i int) string {
	slots := []string{colSeries1, colSeries2, colSeries3, colSeries4, colSeries5, colSeries6}
	if i >= 0 && i < len(slots) {
		return slots[i]
	}
	return colTextSec
}

// sequentialRamp is the single-hue blue ramp, steps 100..700, lightest
// (near-zero) to darkest (maximum).
var sequentialRamp = []string{
	"#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
	"#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281", "#0d366b",
}

// rampColor maps v in [0,1] onto the sequential ramp. Values at or below
// zero return the chart surface (an empty cell reads as "nothing").
func rampColor(v float64) string {
	if v <= 0 {
		return colSurface
	}
	if v >= 1 {
		return sequentialRamp[len(sequentialRamp)-1]
	}
	return sequentialRamp[int(v*float64(len(sequentialRamp)-1)+0.5)]
}

// intensityRunes are the text-mode magnitude glyphs, lightest to
// heaviest.
var intensityRunes = []rune(" .:-=+*#%@")

// intensityRune maps v in [0,1] onto a glyph.
func intensityRune(v float64) rune {
	if v <= 0 {
		return intensityRunes[0]
	}
	if v >= 1 {
		return intensityRunes[len(intensityRunes)-1]
	}
	i := int(v*float64(len(intensityRunes)-2)) + 1
	return intensityRunes[i]
}

// logScale maps a count onto [0,1] logarithmically against max (counts
// in communication matrices span orders of magnitude, the paper's
// heatmaps are effectively log-shaded).
func logScale(v, max int64) float64 {
	if v <= 0 || max <= 0 {
		return 0
	}
	if max == 1 {
		return 1
	}
	return math.Log1p(float64(v)) / math.Log1p(float64(max))
}

// appendEscaped appends s to b, made safe for SVG text content.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if e := entities[s[i]]; e != "" {
			b = append(b, e...)
		} else {
			b = append(b, s[i])
		}
	}
	return b
}

var entities = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '"': "&quot;"}

// svgDoc assembles an SVG document in one byte slice, recycled between
// documents (newSVG takes one, close returns it). Its primitives do no
// per-call setup: they append numbers as fmt's %.1f / %.0f print them,
// so a mark costs only its bytes.
type svgDoc struct {
	b       []byte
	scratch []byte // the last title's bytes, reused by the next (see tip)
}

var svgDocs = sync.Pool{New: func() any { return new(svgDoc) }}

// tip is a mark's <title> text, escaped as it is built in the
// document's scratch bytes, so a titled mark allocates nothing.
type tip []byte

func (t tip) s(v string) tip            { return appendEscaped(t, v) }
func (t tip) d(v int64) tip             { return strconv.AppendInt(t, v, 10) }
func (t tip) f(v float64, prec int) tip { return strconv.AppendFloat(t, v, 'f', prec, 64) }

// tip starts a title; rect and roundedRect copy it into the document.
func (d *svgDoc) tip() tip { return d.scratch[:0] }

func newSVG(w, h float64) *svgDoc {
	d := svgDocs.Get().(*svgDoc)
	d.b = append(d.b[:0], `<svg xmlns="http://www.w3.org/2000/svg"`...)
	d.attrs(0, "width height", w, h)
	d.b = append(d.b, ` viewBox="0 0 `...)
	d.b = append(d.num(w, 0), ' ')
	d.b = append(d.num(h, 0), `" font-family="system-ui, sans-serif">`...)
	d.rect(0, 0, w, h, colSurface, nil)
	return d
}

// num appends v as strconv.AppendFloat(v, 'f', prec) - the call fmt's
// %.<prec>f makes - does. A whole non-negative v, most coordinates, is
// appended as an integer: 'f' with a precision is strconv's slow path.
func (d *svgDoc) num(v float64, prec int) []byte {
	if v < 1e15 && v == math.Trunc(v) && !math.Signbit(v) {
		return append(strconv.AppendUint(d.b, uint64(v), 10), ".0"[:2*prec]...)
	}
	return strconv.AppendFloat(d.b, v, 'f', prec, 64)
}

// attrs appends ` name="v"` for each space-separated name and its v,
// at prec (0 or 1) decimals.
func (d *svgDoc) attrs(prec int, names string, vs ...float64) {
	for _, v := range vs {
		name, rest, _ := strings.Cut(names, " ")
		d.b = append(append(append(d.b, ' '), name...), `="`...)
		d.b = append(d.num(v, prec), '"')
		names = rest
	}
}

// str appends ` name="v"`.
func (d *svgDoc) str(name, v string) {
	d.b = append(append(append(append(append(d.b, ' '), name...), `="`...), v...), '"')
}

func (d *svgDoc) rect(x, y, w, h float64, fill string, title tip) {
	d.roundedRect(x, y, w, h, -1, fill, title)
}

// roundedRect draws a rect with corner radius r; r < 0 omits rx.
func (d *svgDoc) roundedRect(x, y, w, h, r float64, fill string, title tip) {
	d.b = append(d.b, "<rect"...)
	d.attrs(1, "x y width height", x, y, w, h)
	if r >= 0 {
		d.attrs(1, "rx", r)
	}
	d.str("fill", fill)
	if title == nil {
		d.b = append(d.b, "/>"...)
		return
	}
	d.b = append(append(append(d.b, "><title>"...), title...), "</title></rect>"...)
	d.scratch = title[:0]
}

func (d *svgDoc) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	d.b = append(d.b, "<line"...)
	d.attrs(1, "x1 y1 x2 y2", x1, y1, x2, y2)
	d.str("stroke", stroke)
	d.attrs(1, "stroke-width", width)
	d.b = append(d.b, "/>"...)
}

func (d *svgDoc) circle(cx, cy, r float64, fill string) {
	d.b = append(d.b, "<circle"...)
	d.attrs(1, "cx cy r", cx, cy, r)
	d.str("fill", fill)
	d.b = append(d.b, "/>"...)
}

func (d *svgDoc) polygon(points []float64, fill string) {
	d.b = append(d.b, `<polygon points="`...)
	for i := 0; i+1 < len(points); i += 2 {
		d.b = append(d.num(points[i], 1), ',')
		d.b = append(d.num(points[i+1], 1), ' ')
	}
	d.b = append(d.b, '"')
	d.str("fill", fill)
	d.b = append(d.b, "/>"...)
}

// anchor: "start", "middle", or "end".
func (d *svgDoc) text(x, y float64, s, fill, anchor string, size float64) {
	d.b = append(d.b, "<text"...)
	d.attrs(1, "x y", x, y)
	d.str("fill", fill)
	d.str("text-anchor", anchor)
	d.attrs(0, "font-size", size)
	d.b = append(appendEscaped(append(d.b, '>'), s), "</text>"...)
}

// close ends the document and returns it; d is recycled and must not be
// used again.
func (d *svgDoc) close() string {
	d.b = append(d.b, "</svg>"...)
	s := string(d.b)
	svgDocs.Put(d)
	return s
}

// formatCount renders counts compactly (1234 -> "1.2k").
func formatCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return strconv.FormatFloat(float64(v)/1e9, 'f', 1, 64) + "G"
	case v >= 1_000_000:
		return strconv.FormatFloat(float64(v)/1e6, 'f', 1, 64) + "M"
	case v >= 10_000:
		return strconv.FormatFloat(float64(v)/1e3, 'f', 0, 64) + "k"
	case v >= 1_000:
		return strconv.FormatFloat(float64(v)/1e3, 'f', 1, 64) + "k"
	default:
		return strconv.FormatInt(v, 10)
	}
}
