package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"actorprof/internal/stats"
)

// Slow, obviously-right references for the package's kernels: a CSR
// built by one global sort of the canonical edges, the R-MAT quadrant
// walk as a switch per level, and a triangle count that binary-searches
// row(j) once per wedge.

func refNewFromEdges(n int64, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need a positive vertex count, got %d", n)
	}
	canon := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U < e.V {
			e.U, e.V = e.V, e.U
		}
		canon = append(canon, e)
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	g := &Graph{n: n, rowPtr: make([]int64, n+1)}
	prev := Edge{U: -1, V: -1}
	for _, e := range canon {
		if e == prev {
			continue
		}
		prev = e
		g.cols = append(g.cols, e.V)
		g.rowPtr[e.U+1]++
	}
	for i := int64(0); i < n; i++ {
		g.rowPtr[i+1] += g.rowPtr[i]
	}
	return g, nil
}

func refRMATEdges(cfg RMATConfig) []Edge {
	m := int64(cfg.EdgeFactor) << cfg.Scale
	rng := stats.SplitMix64(cfg.Seed ^ 0x5851f42d4c957f2d)
	edges := make([]Edge, 0, m)
	for e := int64(0); e < m; e++ {
		var u, v int64
		for level := cfg.Scale - 1; level >= 0; level-- {
			r := rng.Float64()
			switch {
			case r < cfg.A:
			case r < cfg.A+cfg.B:
				v |= 1 << level
			case r < cfg.A+cfg.B+cfg.C:
				u |= 1 << level
			default:
				u |= 1 << level
				v |= 1 << level
			}
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	return edges
}

func refCountTriangles(g *Graph) int64 {
	var count int64
	for i := int64(0); i < g.n; i++ {
		row := g.Row(i)
		for a := range row {
			for b := 0; b < a; b++ {
				jr := g.Row(row[a])
				k := sort.Search(len(jr), func(k int) bool { return jr[k] >= row[b] })
				if k < len(jr) && jr[k] == row[b] {
					count++
				}
			}
		}
	}
	return count
}

// digest is FNV-64a over the little-endian words of rowPtr, then cols.
func digest(g *Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range [][]int64{g.rowPtr, g.cols} {
		for _, x := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func sameCSR(a, b *Graph) bool {
	return a.n == b.n && slices.Equal(a.rowPtr, b.rowPtr) && slices.Equal(a.cols, b.cols)
}

// TestGraphDigestsGolden pins the substrate bit for bit: every figure
// of the case study is a function of these graphs. The digests were
// recorded with the reference kernels above; a change to the R-MAT
// stream, the CSR build or Symmetrize shows here first.
func TestGraphDigestsGolden(t *testing.T) {
	for _, c := range []struct {
		scale    int
		seed     uint64
		csr, sym uint64
	}{
		{6, 1, 0x3df442bd5fbf1090, 0x5b385de323d66505},
		{8, 7, 0x77082ad589fd3d49, 0x969b90a7561a39bc},
		{10, 42, 0x175e513bd8f2f04b, 0xc08e58e19a3e1183},
		{12, 1, 0x622bde4597ddc16d, 0xcb584503220630c2},
		{12, 42, 0xb93fb98e75975996, 0xa7514650bcccc5d5},
		{14, 42, 0x235ad404f53368a1, 0x6197fc1dbfc0741c},
	} {
		g, err := GenerateRMAT(Graph500(c.scale, 16, c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(g); got != c.csr {
			t.Errorf("scale %d seed %d: CSR digest %#x, want %#x", c.scale, c.seed, got, c.csr)
		}
		if got := digest(g.Symmetrize()); got != c.sym {
			t.Errorf("scale %d seed %d: Symmetrize digest %#x, want %#x", c.scale, c.seed, got, c.sym)
		}
	}
}

// TestTriangleCountsGolden pins the serial oracle at the case study's
// scales below 16 (seed 42, edge factor 16).
func TestTriangleCountsGolden(t *testing.T) {
	for _, c := range []struct {
		scale int
		want  int64
	}{{12, 477280}, {14, 2816978}} {
		g, err := GenerateRMAT(Graph500(c.scale, 16, 42))
		if err != nil {
			t.Fatal(err)
		}
		if got := g.CountTrianglesSerial(); got != c.want {
			t.Errorf("scale %d: %d triangles, want %d", c.scale, got, c.want)
		}
	}
}

func TestGenerateRMATMatchesReference(t *testing.T) {
	skewed := Graph500(9, 8, 5)
	skewed.A, skewed.B, skewed.C, skewed.D = 0.45, 0.15, 0.25, 0.15
	cfgs := []RMATConfig{skewed, Graph500(1, 4, 3)}
	for scale := 2; scale <= 11; scale += 3 {
		for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
			cfgs = append(cfgs, Graph500(scale, 8, seed))
		}
	}
	for _, cfg := range cfgs {
		got, err := GenerateRMAT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refNewFromEdges(int64(1)<<cfg.Scale, refRMATEdges(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("%+v: graph differs from the reference draw", cfg)
		}
		if a, b := got.CountTrianglesSerial(), refCountTriangles(want); a != b {
			t.Fatalf("%+v: %d triangles, reference %d", cfg, a, b)
		}
	}
}

// TestNewFromEdgesMatchesReference builds random edge lists with
// duplicates, self loops, both orientations and isolated vertices, and
// requires the CSR, the triangle count and any error to equal the
// reference's, and the caller's slice to come back untouched.
func TestNewFromEdgesMatchesReference(t *testing.T) {
	rng := stats.SplitMix64(99)
	for trial := 0; trial < 300; trial++ {
		n := int64(1 + rng.Next()%uint64(1+trial))
		span := n - n/4 // the top quarter of the ids stays isolated
		edges := make([]Edge, rng.Next()%uint64(4*n+1))
		for k := range edges {
			switch u := int64(rng.Next() % uint64(span)); {
			case k > 0 && rng.Next()%4 == 0: // a duplicate, either way round
				e := edges[rng.Next()%uint64(k)]
				edges[k] = Edge{U: e.V, V: e.U}
			case rng.Next()%8 == 0:
				edges[k] = Edge{U: u, V: u}
			default:
				edges[k] = Edge{U: u, V: int64(rng.Next() % uint64(span))}
			}
		}
		if trial%10 == 9 && len(edges) > 0 { // the first bad edge decides the error
			edges[rng.Next()%uint64(len(edges))] = Edge{U: n, V: -1}
			edges[rng.Next()%uint64(len(edges))] = Edge{U: 0, V: n + 5}
		}
		in := slices.Clone(edges)
		got, err := NewFromEdges(n, edges)
		want, refErr := refNewFromEdges(n, edges)
		if !slices.Equal(in, edges) {
			t.Fatalf("trial %d: NewFromEdges wrote the caller's edge slice", trial)
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		if !sameCSR(got, want) {
			t.Fatalf("trial %d (n=%d, %d edges): CSR differs from the reference", trial, n, len(edges))
		}
		if a, b := got.CountTrianglesSerial(), refCountTriangles(want); a != b {
			t.Fatalf("trial %d: %d triangles, reference %d", trial, a, b)
		}
	}
}
