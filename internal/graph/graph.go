// Package graph provides the input substrate of the paper's case study:
// R-MAT graph generation following graph500 conventions, a compressed
// sparse row (CSR) representation of the lower triangular adjacency
// matrix L, and the row distributions the case study compares (1D Cyclic
// and 1D Range, plus 1D Block as an extra ablation point).
package graph

import (
	"fmt"
	"slices"
)

// Graph is the lower triangular part L of a simple undirected graph's
// adjacency matrix, in CSR form: for every row i, Cols holds the sorted
// neighbors j with j < i. This is exactly the input shape of the paper's
// Algorithm 1.
type Graph struct {
	n      int64
	rowPtr []int64
	cols   []int64
}

// NewFromEdges builds the lower-triangular CSR from an undirected edge
// list. Self loops are dropped and duplicate edges are merged; each edge
// {u,v} is stored once as (max, min). The build is a counting sort: count
// each row, scatter the rows' columns, then sort and compact every row in
// place. edges is only read.
func NewFromEdges(n int64, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need a positive vertex count, got %d", n)
	}
	// rowPtr[u] counts row u, then becomes its end, then (as the scatter
	// fills the row backwards) its start.
	g := &Graph{n: n, rowPtr: make([]int64, n+1)}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U != e.V {
			g.rowPtr[max(e.U, e.V)]++
		}
	}
	for i := int64(1); i < n; i++ {
		g.rowPtr[i] += g.rowPtr[i-1]
	}
	g.rowPtr[n] = g.rowPtr[n-1]
	g.cols = make([]int64, g.rowPtr[n])
	for _, e := range edges {
		if e.U != e.V {
			u := max(e.U, e.V)
			g.rowPtr[u]--
			g.cols[g.rowPtr[u]] = min(e.U, e.V)
		}
	}
	var end int64
	for i := int64(0); i < n; i++ {
		row := g.cols[g.rowPtr[i]:g.rowPtr[i+1]]
		slices.Sort(row)
		g.rowPtr[i] = end
		end += int64(copy(g.cols[end:], slices.Compact(row)))
	}
	g.rowPtr[n] = end
	g.cols = g.cols[:end]
	return g, nil
}

// Edge is one undirected edge.
type Edge struct{ U, V int64 }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int64 { return g.n }

// NumEdges returns the number of stored (lower-triangular) edges, which
// equals the number of undirected edges after dedup.
func (g *Graph) NumEdges() int64 { return int64(len(g.cols)) }

// Degree returns the lower-triangular degree of row i (the number of
// neighbors j < i).
func (g *Graph) Degree(i int64) int64 { return g.rowPtr[i+1] - g.rowPtr[i] }

// Row returns the sorted neighbors j < i of row i. The returned slice
// aliases the graph; do not modify it.
func (g *Graph) Row(i int64) []int64 { return g.cols[g.rowPtr[i]:g.rowPtr[i+1]] }

// HasEdge reports whether l_ij = 1 (requires j < i; callers pass the
// canonical orientation as Algorithm 1 does).
func (g *Graph) HasEdge(i, j int64) bool {
	_, ok := slices.BinarySearch(g.Row(i), j)
	return ok
}

// MaxDegree returns the largest lower-triangular row degree.
func (g *Graph) MaxDegree() int64 {
	var mx int64
	for i := int64(0); i < g.n; i++ {
		if d := g.Degree(i); d > mx {
			mx = d
		}
	}
	return mx
}

// Wedges returns the total number of ordered neighbor pairs
// sum_i d_i*(d_i-1)/2: the number of messages the triangle-counting
// actor program will send.
func (g *Graph) Wedges() int64 {
	var w int64
	for i := int64(0); i < g.n; i++ {
		d := g.Degree(i)
		w += d * (d - 1) / 2
	}
	return w
}

// Symmetrize returns the full adjacency structure: each row i holds all
// neighbors of i (both j < i and j > i), sorted. Algorithms that need
// out-edges in both directions (BFS, PageRank) use this; triangle
// counting keeps the lower-triangular form.
func (g *Graph) Symmetrize() *Graph {
	full := &Graph{n: g.n, rowPtr: make([]int64, g.n+1)}
	for i := int64(0); i < g.n; i++ {
		full.rowPtr[i+1] += g.Degree(i)
		for _, j := range g.Row(i) {
			full.rowPtr[j+1]++
		}
	}
	for i := int64(0); i < g.n; i++ {
		full.rowPtr[i+1] += full.rowPtr[i]
	}
	full.cols = make([]int64, full.rowPtr[g.n])
	cursor := append([]int64(nil), full.rowPtr[:g.n]...)
	for i := int64(0); i < g.n; i++ {
		for _, j := range g.Row(i) {
			full.cols[cursor[i]] = j
			cursor[i]++
			full.cols[cursor[j]] = i
			cursor[j]++
		}
	}
	for i := int64(0); i < g.n; i++ {
		slices.Sort(full.cols[full.rowPtr[i]:full.rowPtr[i+1]])
	}
	return full
}

// CountTrianglesSerial counts triangles with a sequential marking
// algorithm. The paper validates the distributed count against an answer
// "also calculated by the application"; this is that reference. It shares
// no step with the distributed probe (HasEdge per wedge): for each row i
// it walks i's neighbors j in ascending order, counts the members of
// row(j) already stamped i, which are i's neighbors below j, then stamps j.
func (g *Graph) CountTrianglesSerial() int64 {
	var count int64
	stamp := make([]int64, g.n)
	for i := int64(0); i < g.n; i++ {
		for _, j := range g.Row(i) {
			for _, k := range g.Row(j) {
				if stamp[k] == i+1 {
					count++
				}
			}
			stamp[j] = i + 1
		}
	}
	return count
}
