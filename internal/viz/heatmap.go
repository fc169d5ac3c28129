package viz

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Heatmap is the communication-matrix plot of the paper's logical and
// physical traces (Figures 3-4, 8-9), modeled on CrayPat's "Mosaic
// Report": cell (row, col) shades with the number of sends from source
// PE row to destination PE col; the last column holds per-source totals
// (sends) and the last row per-destination totals (recvs).
type Heatmap struct {
	// Title heads the plot.
	Title string
	// Cells is the square count matrix: Cells[src][dst].
	Cells [][]int64
	// RowLabel / ColLabel name the axes (default "src PE" / "dst PE").
	RowLabel, ColLabel string
	// Totals appends the send/recv total row and column, as the paper's
	// heatmaps do.
	Totals bool
}

func (h *Heatmap) labels() (string, string) {
	row, col := h.RowLabel, h.ColLabel
	if row == "" {
		row = "src PE"
	}
	if col == "" {
		col = "dst PE"
	}
	return row, col
}

func (h *Heatmap) validate() error {
	n := len(h.Cells)
	if n == 0 {
		return fmt.Errorf("viz: heatmap needs a non-empty matrix")
	}
	for i, row := range h.Cells {
		if len(row) != n {
			return fmt.Errorf("viz: heatmap row %d has %d cells, want %d", i, len(row), n)
		}
	}
	return nil
}

func (h *Heatmap) max() int64 {
	var mx int64
	for _, row := range h.Cells {
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}

// totals returns the per-source send totals, the per-destination recv
// totals and the largest of either.
func (h *Heatmap) totals() (sends, recvs []int64, mx int64) {
	sends, recvs = make([]int64, len(h.Cells)), make([]int64, len(h.Cells))
	for i, row := range h.Cells {
		for j, v := range row {
			sends[i] += v
			recvs[j] += v
		}
	}
	for i := range sends {
		mx = max(mx, sends[i], recvs[i])
	}
	return sends, recvs, mx
}

// MarshalJSON writes the heatmap's JSON form: its title, its axis labels
// (defaults filled in), the cells, and the send and recv totals, which
// are written whether or not Totals draws them.
func (h *Heatmap) MarshalJSON() ([]byte, error) {
	row, col := h.labels()
	sends, recvs, _ := h.totals()
	return json.Marshal(struct {
		Title      string    `json:"title"`
		RowLabel   string    `json:"row_label"`
		ColLabel   string    `json:"col_label"`
		Cells      [][]int64 `json:"cells"`
		SendTotals []int64   `json:"send_totals"`
		RecvTotals []int64   `json:"recv_totals"`
	}{h.Title, row, col, h.Cells, sends, recvs})
}

// RenderText writes the heatmap as ANSI-free terminal art: one two-glyph
// cell per PE pair on a log-intensity scale, with totals separated by
// rules and a legend mapping glyphs to count ranges.
func (h *Heatmap) RenderText(w io.Writer) error {
	if err := h.validate(); err != nil {
		return err
	}
	n := len(h.Cells)
	mx := h.max()
	rowL, colL := h.labels()

	fmt.Fprintf(w, "%s\n", h.Title)
	fmt.Fprintf(w, "rows: %s, cols: %s, max cell = %s\n", rowL, colL, formatCount(mx))

	// Column header (PE ids every 4 columns to stay narrow).
	fmt.Fprintf(w, "%6s ", "")
	for j := 0; j < n; j++ {
		if j%4 == 0 {
			fmt.Fprintf(w, "%-8d", j)
		}
	}
	if h.Totals {
		fmt.Fprintf(w, "| send")
	}
	fmt.Fprintln(w)

	sends, recvs, totMax := h.totals()

	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%5d  ", i)
		for j := 0; j < n; j++ {
			r := intensityRune(logScale(h.Cells[i][j], mx))
			fmt.Fprintf(w, "%c%c", r, r)
		}
		if h.Totals {
			fmt.Fprintf(w, " | %s", formatCount(sends[i]))
		}
		fmt.Fprintln(w)
	}
	if h.Totals {
		fmt.Fprintf(w, "%6s %s\n", "", strings.Repeat("-", 2*n))
		fmt.Fprintf(w, "%6s ", "recv")
		for j := 0; j < n; j++ {
			r := intensityRune(logScale(recvs[j], totMax))
			fmt.Fprintf(w, "%c%c", r, r)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "legend: '%c' 0, '%c' low ... '%c' max (log scale)\n",
		intensityRunes[0], intensityRunes[1], intensityRunes[len(intensityRunes)-1])
	return nil
}

// RenderSVG renders the heatmap as a standalone SVG document with a
// sequential single-hue ramp (log scale), totals gutter, and a colorbar.
func (h *Heatmap) RenderSVG() (string, error) {
	if err := h.validate(); err != nil {
		return "", err
	}
	n := len(h.Cells)
	mx := h.max()
	rowL, colL := h.labels()

	const (
		cell    = 18.0
		gap     = 1.0 // surface gap between fills
		marginL = 60.0
		marginT = 56.0
		gutter  = 10.0
	)
	extra := 0.0
	if h.Totals {
		extra = gutter + cell
	}
	gridW := float64(n) * cell
	width := marginL + gridW + extra + 90
	height := marginT + gridW + extra + 60

	d := newSVG(width, height)
	d.text(marginL, 22, h.Title, colTextPrim, "start", 14)
	d.text(marginL+gridW/2, marginT-12, colL, colTextSec, "middle", 11)

	sends, recvs, totMax := h.totals()

	for i := 0; i < n; i++ {
		y := marginT + float64(i)*cell
		// Row label every few rows to avoid clutter on big matrices.
		if n <= 20 || i%4 == 0 {
			d.text(marginL-6, y+cell-5, strconv.Itoa(i), colTextSec, "end", 10)
		}
		for j := 0; j < n; j++ {
			x := marginL + float64(j)*cell
			v := h.Cells[i][j]
			d.rect(x, y, cell-gap, cell-gap, rampColor(logScale(v, mx)),
				d.tip().s("PE ").d(int64(i)).s(" -> PE ").d(int64(j)).s(": ").d(v).s(" sends"))
		}
		if h.Totals {
			x := marginL + gridW + gutter
			d.rect(x, y, cell-gap, cell-gap, rampColor(logScale(sends[i], totMax)),
				d.tip().s("PE ").d(int64(i)).s(" total sends: ").d(sends[i]))
		}
	}
	for j := 0; j < n; j++ {
		x := marginL + float64(j)*cell
		if n <= 20 || j%4 == 0 {
			d.text(x+cell/2, marginT+gridW+extra+14, strconv.Itoa(j), colTextSec, "middle", 10)
		}
		if h.Totals {
			y := marginT + gridW + gutter
			d.rect(x, y, cell-gap, cell-gap, rampColor(logScale(recvs[j], totMax)),
				d.tip().s("PE ").d(int64(j)).s(" total recvs: ").d(recvs[j]))
		}
	}
	if h.Totals {
		d.text(marginL+gridW+gutter+cell/2, marginT-4, "send", colTextSec, "middle", 9)
		d.text(marginL-6, marginT+gridW+gutter+cell-5, "recv", colTextSec, "end", 9)
	}
	d.text(18, marginT+gridW/2, rowL, colTextSec, "middle", 11)

	// Colorbar: the sequential ramp with min/max annotations.
	cbX := marginL + gridW + extra + 24
	cbH := gridW * 0.6
	cbY := marginT + (gridW-cbH)/2
	steps := len(sequentialRamp)
	for s := 0; s < steps; s++ {
		d.rect(cbX, cbY+cbH-float64(s+1)*cbH/float64(steps), 14, cbH/float64(steps)+0.5,
			sequentialRamp[s], nil)
	}
	d.text(cbX+18, cbY+8, formatCount(mx), colTextSec, "start", 10)
	d.text(cbX+18, cbY+cbH, "1", colTextSec, "start", 10)
	d.text(cbX, cbY+cbH+16, "log", colTextSec, "start", 9)
	return d.close(), nil
}
