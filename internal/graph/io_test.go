package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	for _, c := range []struct {
		name, in string
		n, m     int64  // the graph read, when err is ""
		err      string // a substring of the error
	}{
		{"header and edges", "# vertices 5 edges 2\n3 1\n4 0\n", 5, 2, ""},
		{"no header grows to the largest id", "3 1\n\n  4 0  \n", 5, 2, ""},
		{"tabs separate too", "3\t1\n", 4, 1, ""},
		{"duplicates merge under a header", "# vertices 4 edges 1\n3 1\n1 3\n", 4, 1, ""},
		{"trailing junk on an id", "1 2x\n", 0, 0, `"1 2x"`},
		{"three fields", "1 2 3\n", 0, 0, `"1 2 3": want two vertex ids, got 3`},
		{"one field", "7\n", 0, 0, `"7": want two vertex ids, got 1`},
		{"not a number", "a 1\n", 0, 0, `"a 1"`},
		{"header edge count too high", "# vertices 5 edges 3\n3 1\n4 0\n", 0, 0, "header says 3 edges, the list holds 2"},
		{"header edge count too low", "# vertices 5 edges 1\n3 1\n4 0\n", 0, 0, "header says 1 edges, the list holds 2"},
		{"id beyond the header", "# vertices 3 edges 1\n3 1\n", 0, 0, "out of range"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := ReadEdgeList(strings.NewReader(c.in))
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one containing %s", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != c.n || g.NumEdges() != c.m {
				t.Fatalf("read %d vertices and %d edges, want %d and %d", g.NumVertices(), g.NumEdges(), c.n, c.m)
			}
		})
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := GenerateRMAT(Graph500(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g, back) {
		t.Fatal("the edge list read back differs from the graph written")
	}
}
