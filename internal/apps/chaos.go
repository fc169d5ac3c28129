package apps

import (
	"fmt"
	"math"
	"sort"

	"actorprof/internal/actor"
	"actorprof/internal/fault/harness"
	"actorprof/internal/graph"
	"actorprof/internal/sim"
)

// Chaos-cell workload sizes: small enough that a full differential
// matrix (apps x plans x machines) stays fast, large enough that every
// app exchanges many aggregation buffers per run.
var (
	chaosGraphCfg = struct {
		scale, ef int
		seed      uint64
	}{scale: 6, ef: 8, seed: 21}
	chaosHistogram   = HistogramConfig{UpdatesPerPE: 120, TableSizePerPE: 32, Seed: 9}
	chaosIndexGather = IndexGatherConfig{RequestsPerPE: 100, TableSizePerPE: 32, Seed: 5}
	chaosPermutation = PermutationConfig{SlotsPerPE: 32, Seed: 11}
	chaosISort       = ISortConfig{KeysPerPE: 128, BucketWidth: 48, Seed: 77}
	chaosTopoSort    = TopoSortConfig{RowsPerPE: 12, ExtraNNZPer256: 40, Seed: 321}
	chaosInfluence   = InfluenceConfig{Seeds: 3, Walks: 24, EdgeProb256: 48, Seed: 2024}
	chaosPageRank    = PageRankConfig{Damping: 0.85, Iterations: 4}
)

// ChaosApps registers every app of this package with the chaos harness:
// each entry pairs the distributed FA-BSP implementation with the
// sequential oracle (exact outputs, float tolerance, or
// schedule-independent invariant) that must hold no matter how the
// fault injector perturbs the schedule. The differential tests, the
// replay path, and the nightly soak binary all consume this list.
func ChaosApps() []harness.App {
	g, err := graph.GenerateRMAT(graph.Graph500(chaosGraphCfg.scale, chaosGraphCfg.ef, chaosGraphCfg.seed))
	if err != nil {
		panic(fmt.Sprintf("apps: chaos graph generation failed: %v", err))
	}
	full := g.Symmetrize()

	// Sequential oracles, computed once. All are independent of the PE
	// count; checks that partition by owner rebuild the distribution
	// from the machine shape.
	wantTri := g.CountTrianglesSerial()
	if wantTri == 0 {
		panic("apps: chaos graph has no triangles; pick another seed")
	}
	wantLevels := serialBFS(full, 0)
	var wantVisited int64
	for _, l := range wantLevels {
		if l >= 0 {
			wantVisited++
		}
	}
	if wantVisited < 2 {
		panic("apps: chaos BFS root is isolated; pick another seed")
	}
	wantRank := serialPageRank(full, chaosPageRank.Damping, chaosPageRank.Iterations)
	wantLabels, wantComps := serialComponents(full)
	wantCommon := serialCommonNeighbors(g)
	wantTranspose := serialTranspose(g)
	wantInfluence := InfluenceSerial(full, chaosInfluence)

	dist := func(npes int) graph.Distribution { return graph.NewCyclicDist(npes) }

	return []harness.App{
		{
			Name: "triangle",
			Run: func(rt *actor.Runtime) (any, error) {
				return TriangleCount(rt, g, dist(rt.PE().NumPEs()))
			},
			Check: func(m sim.Machine, perPE []any) error {
				for pe, r := range perPE {
					if got := r.(int64); got != wantTri {
						return fmt.Errorf("PE %d counted %d triangles, want %d", pe, got, wantTri)
					}
				}
				return nil
			},
		},
		{
			Name: "histogram",
			Run: func(rt *actor.Runtime) (any, error) {
				return Histogram(rt, chaosHistogram)
			},
			Check: func(m sim.Machine, perPE []any) error {
				want := int64(m.NumPEs * chaosHistogram.UpdatesPerPE)
				var mass int64
				for pe, r := range perPE {
					res := r.(HistogramResult)
					if res.GlobalMass != want {
						return fmt.Errorf("PE %d saw global mass %d, want %d", pe, res.GlobalMass, want)
					}
					for _, v := range res.Local {
						mass += v
					}
				}
				if mass != want {
					return fmt.Errorf("buckets hold %d updates, want %d", mass, want)
				}
				return nil
			},
		},
		{
			Name:        "indexgather",
			BufferItems: 8,
			Run: func(rt *actor.Runtime) (any, error) {
				// IndexGather verifies every response internally.
				return IndexGather(rt, chaosIndexGather)
			},
			Check: func(m sim.Machine, perPE []any) error {
				for pe, r := range perPE {
					if got := len(r.([]int64)); got != chaosIndexGather.RequestsPerPE {
						return fmt.Errorf("PE %d fetched %d values, want %d", pe, got, chaosIndexGather.RequestsPerPE)
					}
				}
				return nil
			},
		},
		{
			Name: "bfs",
			Run: func(rt *actor.Runtime) (any, error) {
				return BFS(rt, full, dist(rt.PE().NumPEs()), 0)
			},
			Check: func(m sim.Machine, perPE []any) error {
				d := dist(m.NumPEs)
				for pe, r := range perPE {
					res := r.(BFSResult)
					if res.Visited != wantVisited {
						return fmt.Errorf("PE %d visited %d vertices, want %d", pe, res.Visited, wantVisited)
					}
					for v := int64(0); v < full.NumVertices(); v++ {
						if d.Owner(v) == pe && res.Level[v] != wantLevels[v] {
							return fmt.Errorf("vertex %d: level %d, want %d", v, res.Level[v], wantLevels[v])
						}
					}
				}
				return nil
			},
		},
		{
			Name: "pagerank",
			Run: func(rt *actor.Runtime) (any, error) {
				return PageRank(rt, full, dist(rt.PE().NumPEs()), chaosPageRank)
			},
			Check: func(m sim.Machine, perPE []any) error {
				// Handler order changes float accumulation order, so the
				// oracle is a tolerance comparison, not exact equality.
				d := dist(m.NumPEs)
				for pe, r := range perPE {
					res := r.(PageRankResult)
					if res.Sum < 0.9 || res.Sum > 1.1 {
						return fmt.Errorf("PE %d: rank mass %g escaped [0.9, 1.1]", pe, res.Sum)
					}
					for v := int64(0); v < full.NumVertices(); v++ {
						if d.Owner(v) != pe {
							continue
						}
						if diff := math.Abs(res.Rank[v] - wantRank[v]); diff > 1e-9+1e-6*math.Abs(wantRank[v]) {
							return fmt.Errorf("vertex %d: rank %g, want %g (diff %g)", v, res.Rank[v], wantRank[v], diff)
						}
					}
				}
				return nil
			},
		},
		{
			Name: "components",
			Run: func(rt *actor.Runtime) (any, error) {
				return ConnectedComponents(rt, full, dist(rt.PE().NumPEs()))
			},
			Check: func(m sim.Machine, perPE []any) error {
				d := dist(m.NumPEs)
				for pe, r := range perPE {
					res := r.(ConnectedComponentsResult)
					if res.Components != wantComps {
						return fmt.Errorf("PE %d found %d components, want %d", pe, res.Components, wantComps)
					}
					for v := int64(0); v < full.NumVertices(); v++ {
						if d.Owner(v) == pe && res.Label[v] != wantLabels[v] {
							return fmt.Errorf("vertex %d: label %d, want %d", v, res.Label[v], wantLabels[v])
						}
					}
				}
				return nil
			},
		},
		{
			Name: "jaccard",
			Run: func(rt *actor.Runtime) (any, error) {
				return Jaccard(rt, g, dist(rt.PE().NumPEs()))
			},
			Check: func(m sim.Machine, perPE []any) error {
				got := map[int64]int64{}
				for pe, r := range perPE {
					res := r.(JaccardResult)
					if res.TriangleCheck != wantTri {
						return fmt.Errorf("PE %d: triangle cross-check %d, want %d", pe, res.TriangleCheck, wantTri)
					}
					for k, v := range res.Common {
						got[k] += v
					}
				}
				if len(got) != len(wantCommon) {
					return fmt.Errorf("credited %d edges, want %d", len(got), len(wantCommon))
				}
				for k, v := range wantCommon {
					if got[k] != v {
						return fmt.Errorf("edge key %d: common = %d, want %d", k, got[k], v)
					}
				}
				return nil
			},
		},
		{
			Name: "transpose",
			Run: func(rt *actor.Runtime) (any, error) {
				return Transpose(rt, g, dist(rt.PE().NumPEs()))
			},
			Check: func(m sim.Machine, perPE []any) error {
				d := dist(m.NumPEs)
				got := map[int64][]int64{}
				for pe, r := range perPE {
					for row, vals := range r.(map[int64][]int64) {
						if d.Owner(row) != pe {
							return fmt.Errorf("row %d delivered to PE %d, owner is %d", row, pe, d.Owner(row))
						}
						got[row] = vals
					}
				}
				if len(got) != len(wantTranspose) {
					return fmt.Errorf("transposed %d rows, want %d", len(got), len(wantTranspose))
				}
				for row, want := range wantTranspose {
					gv := got[row]
					if len(gv) != len(want) {
						return fmt.Errorf("row %d: %d entries, want %d", row, len(gv), len(want))
					}
					for i := range want {
						if gv[i] != want[i] {
							return fmt.Errorf("row %d entry %d: %d, want %d", row, i, gv[i], want[i])
						}
					}
				}
				return nil
			},
		},
		{
			Name: "influence",
			Run: func(rt *actor.Runtime) (any, error) {
				return Influence(rt, full, dist(rt.PE().NumPEs()), chaosInfluence)
			},
			Check: func(m sim.Machine, perPE []any) error {
				for pe, r := range perPE {
					res := r.(InfluenceResult)
					if res.Covered != wantInfluence.Covered {
						return fmt.Errorf("PE %d: covered %d, want %d", pe, res.Covered, wantInfluence.Covered)
					}
					if len(res.Seeds) != len(wantInfluence.Seeds) {
						return fmt.Errorf("PE %d: %d seeds, want %d", pe, len(res.Seeds), len(wantInfluence.Seeds))
					}
					for i := range wantInfluence.Seeds {
						if res.Seeds[i] != wantInfluence.Seeds[i] {
							return fmt.Errorf("PE %d: seeds %v, want %v", pe, res.Seeds, wantInfluence.Seeds)
						}
					}
				}
				return nil
			},
		},
		{
			// Which dart wins a contested slot depends on arrival order,
			// so the permutation itself is schedule-dependent; the oracle
			// is the bijection invariant.
			Name:        "permutation",
			BufferItems: 8,
			Run: func(rt *actor.Runtime) (any, error) {
				return Permutation(rt, chaosPermutation)
			},
			Check: checkPermutationBijection,
		},
		{
			// ISx bucket sort: deterministic per-source placement makes
			// the result exactly the serial oracle's bucket slices, no
			// matter how the injector perturbs delivery.
			Name: "isort",
			Run: func(rt *actor.Runtime) (any, error) {
				return ISort(rt, chaosISort)
			},
			Check: checkISortExact(chaosISort),
		},
		{
			// Toposort's pivot choices depend on peel order, so the output
			// permutation is schedule-dependent; the oracle is the
			// triangularity invariant of whatever permutation came out.
			Name: "toposort",
			Run: func(rt *actor.Runtime) (any, error) {
				return TopoSort(rt, chaosTopoSort)
			},
			Check:       checkTopoSortInvariant,
			BufferItems: 16,
		},
	}
}

// checkPermutationBijection validates a permutation run: the per-PE
// slots merge into a bijection of 0..N-1 (the schedule-independent
// invariant; which dart wins a contested slot is schedule-dependent).
func checkPermutationBijection(m sim.Machine, perPE []any) error {
	n := m.NumPEs * chaosPermutation.SlotsPerPE
	all := make([]int64, 0, n)
	for pe, r := range perPE {
		res := r.(PermutationResult)
		if len(res.Slots) != chaosPermutation.SlotsPerPE {
			return fmt.Errorf("PE %d holds %d slots, want %d", pe, len(res.Slots), chaosPermutation.SlotsPerPE)
		}
		all = append(all, res.Slots...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			return fmt.Errorf("not a permutation: position %d holds %d", i, v)
		}
	}
	return nil
}

// checkISortExact validates an isort run against the serial oracle:
// every PE's sorted bucket must equal the corresponding slice of the
// globally sorted key multiset, exactly.
func checkISortExact(cfg ISortConfig) func(sim.Machine, []any) error {
	return func(m sim.Machine, perPE []any) error {
		want := ISortSerial(m.NumPEs, cfg)
		for pe, r := range perPE {
			res := r.(ISortResult)
			if len(res.Keys) != len(want[pe]) {
				return fmt.Errorf("PE %d bucket holds %d keys, want %d", pe, len(res.Keys), len(want[pe]))
			}
			for i, k := range res.Keys {
				if k != want[pe][i] {
					return fmt.Errorf("PE %d bucket[%d] = %d, want %d", pe, i, k, want[pe][i])
				}
			}
		}
		return nil
	}
}

// checkTopoSortInvariant validates a toposort run: the per-PE row
// positions merge into a permutation, the matched columns into another,
// and permuting the generated matrix by them must be lower triangular
// with the matches on the diagonal.
func checkTopoSortInvariant(m sim.Machine, perPE []any) error {
	n := int64(m.NumPEs * chaosTopoSort.RowsPerPE)
	rowPos := make([]int64, n)
	matchCol := make([]int64, n)
	for r := int64(0); r < n; r++ {
		pe := int(r) % m.NumPEs // TopoSort distributes rows cyclically
		res := perPE[pe].(TopoSortResult)
		rowPos[r], matchCol[r] = res.RowPos[r], res.MatchCol[r]
	}
	seenPos := make([]bool, n)
	seenCol := make([]bool, n)
	for r := int64(0); r < n; r++ {
		p, c := rowPos[r], matchCol[r]
		if p < 0 || p >= n || seenPos[p] {
			return fmt.Errorf("row %d: bad/duplicate position %d", r, p)
		}
		if c < 0 || c >= n || seenCol[c] {
			return fmt.Errorf("row %d: bad/duplicate match column %d", r, c)
		}
		seenPos[p] = true
		seenCol[c] = true
	}
	colPos := make([]int64, n)
	for r := int64(0); r < n; r++ {
		colPos[matchCol[r]] = rowPos[r]
	}
	for r := int64(0); r < n; r++ {
		// Regenerate row r of the matrix exactly as TopoSort does.
		h := splitmix{state: chaosTopoSort.Seed ^ uint64(r)*0x9e3779b97f4a7c15}
		cols := []int64{r}
		for j := r + 1; j < n; j++ {
			if int(h.next()&0xff) < chaosTopoSort.ExtraNNZPer256 {
				cols = append(cols, j)
			}
		}
		for _, c := range cols {
			switch {
			case c == matchCol[r]:
				if colPos[c] != rowPos[r] {
					return fmt.Errorf("match (%d,%d) not on the diagonal", r, c)
				}
			case colPos[c] > rowPos[r]:
				return fmt.Errorf("non-zero (%d,%d): colPos %d > rowPos %d (not triangular)",
					r, c, colPos[c], rowPos[r])
			}
		}
	}
	return nil
}

// --- sequential oracles ----------------------------------------------------

// serialBFS computes reference BFS levels with a queue.
func serialBFS(full *graph.Graph, root int64) []int64 {
	level := make([]int64, full.NumVertices())
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []int64{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range full.Row(v) {
			if level[nb] < 0 {
				level[nb] = level[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return level
}

// serialPageRank computes reference ranks with dense iteration,
// mirroring the distributed version's fixed-point rounding of the
// dangling mass.
func serialPageRank(full *graph.Graph, damping float64, iters int) []float64 {
	n := full.NumVertices()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		acc := make([]float64, n)
		var dangling float64
		for v := int64(0); v < n; v++ {
			row := full.Row(v)
			if len(row) == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(len(row))
			for _, nb := range row {
				acc[nb] += share
			}
		}
		dangling = float64(int64(dangling*1e12)) / 1e12
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := int64(0); v < n; v++ {
			rank[v] = base + damping*acc[v]
		}
	}
	return rank
}

// serialComponents computes reference component labels with union-find
// (union by min, so labels are component minima).
func serialComponents(full *graph.Graph) ([]int64, int64) {
	n := full.NumVertices()
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := int64(0); i < n; i++ {
		for _, j := range full.Row(i) {
			ri, rj := find(i), find(j)
			if ri != rj {
				if ri < rj {
					parent[rj] = ri
				} else {
					parent[ri] = rj
				}
			}
		}
	}
	labels := make([]int64, n)
	var comps int64
	for i := int64(0); i < n; i++ {
		labels[i] = find(i)
		if labels[i] == i {
			comps++
		}
	}
	return labels, comps
}

// serialCommonNeighbors counts, per lower-triangular edge, the common
// neighbors via triangle enumeration - the Jaccard numerator oracle.
func serialCommonNeighbors(g *graph.Graph) map[int64]int64 {
	want := map[int64]int64{}
	for i := int64(0); i < g.NumVertices(); i++ {
		row := g.Row(i)
		for a := 0; a < len(row); a++ {
			for b := 0; b < a; b++ {
				j, k := row[a], row[b]
				if g.HasEdge(j, k) {
					want[EdgeKey(i, j)]++
					want[EdgeKey(i, k)]++
					want[EdgeKey(j, k)]++
				}
			}
		}
	}
	return want
}

// serialTranspose builds the reference transpose of the lower triangle:
// row c of the result holds every r with an edge (r, c).
func serialTranspose(g *graph.Graph) map[int64][]int64 {
	want := map[int64][]int64{}
	for r := int64(0); r < g.NumVertices(); r++ {
		for _, c := range g.Row(r) {
			want[c] = append(want[c], r)
		}
	}
	return want
}
