package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain text edge list: a header
// line "# vertices N edges M" followed by one "i j" pair per line (the
// canonical lower-triangular orientation, i > j).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices %d edges %d\n", g.n, g.NumEdges())
	for i := int64(0); i < g.n; i++ {
		for _, j := range g.Row(i) {
			fmt.Fprintf(bw, "%d %d\n", i, j)
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format (and tolerates plain
// edge lists without the header by growing the vertex count to the
// largest id seen). An edge line must hold exactly two decimal ids, and
// a header's edge count must equal the built graph's.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n, m := int64(-1), int64(-1)
	var edges []Edge
	var maxID int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hdrN, hdrM int64
			if _, err := fmt.Sscanf(line, "# vertices %d edges %d", &hdrN, &hdrM); err == nil {
				n, m = hdrN, hdrM
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q: want two vertex ids, got %d fields", line, len(f))
		}
		u, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		maxID = max(maxID, u, v)
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxID + 1
	}
	g, err := NewFromEdges(n, edges)
	if err == nil && m >= 0 && g.NumEdges() != m {
		return nil, fmt.Errorf("graph: header says %d edges, the list holds %d", m, g.NumEdges())
	}
	return g, err
}
