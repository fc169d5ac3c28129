package apps

import (
	"sort"
	"sync"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/graph"
	"actorprof/internal/shmem"
)

func TestConnectedComponentsMatchesSerial(t *testing.T) {
	// A sparse graph (low edge factor) so multiple components exist.
	g := testGraph(t, 8, 1, 31)
	full := g.Symmetrize()
	wantLabels, wantComps := serialComponents(full)
	if wantComps < 2 {
		t.Fatalf("test graph should have several components, got %d", wantComps)
	}

	const npes, perNode = 8, 4
	dist := graph.NewCyclicDist(npes)
	merged := make([]int64, full.NumVertices())
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 16})
		res, err := ConnectedComponents(rt, full, dist)
		if err != nil {
			panic(err)
		}
		if res.Components != wantComps {
			panic("component count mismatch")
		}
		mu.Lock()
		for i := int64(0); i < full.NumVertices(); i++ {
			if dist.Owner(i) == pe.Rank() {
				merged[i] = res.Label[i]
			}
		}
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range merged {
		if merged[i] != wantLabels[i] {
			t.Fatalf("vertex %d: label %d, want %d", i, merged[i], wantLabels[i])
		}
	}
}

func TestJaccardCommonNeighborCounts(t *testing.T) {
	g := testGraph(t, 7, 6, 77)
	wantTriangles := g.CountTrianglesSerial()
	if wantTriangles == 0 {
		t.Fatal("graph has no triangles")
	}
	// Serial reference: common neighbors per edge via triangle
	// enumeration.
	wantCommon := map[int64]int64{}
	for i := int64(0); i < g.NumVertices(); i++ {
		row := g.Row(i)
		for a := 0; a < len(row); a++ {
			for b := 0; b < a; b++ {
				j, k := row[a], row[b]
				if g.HasEdge(j, k) {
					wantCommon[EdgeKey(i, j)]++
					wantCommon[EdgeKey(i, k)]++
					wantCommon[EdgeKey(j, k)]++
				}
			}
		}
	}

	const npes, perNode = 8, 4
	dist := graph.NewCyclicDist(npes)
	got := map[int64]int64{}
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 16})
		res, err := Jaccard(rt, g, dist)
		if err != nil {
			panic(err)
		}
		if res.TriangleCheck != wantTriangles {
			panic("jaccard triangle cross-check failed")
		}
		mu.Lock()
		for k, v := range res.Common {
			got[k] += v
		}
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantCommon) {
		t.Fatalf("credited %d edges, want %d", len(got), len(wantCommon))
	}
	for k, v := range wantCommon {
		if got[k] != v {
			t.Fatalf("edge key %d: common = %d, want %d", k, got[k], v)
		}
	}
}

func TestJaccardSimilarity(t *testing.T) {
	if s := JaccardSimilarity(2, 4, 3); s != 2.0/5.0 {
		t.Fatalf("JaccardSimilarity = %v, want 0.4", s)
	}
	if s := JaccardSimilarity(0, 0, 0); s != 0 {
		t.Fatalf("degenerate similarity = %v, want 0", s)
	}
}

func TestPermutationIsBijection(t *testing.T) {
	const npes, perNode, slots = 8, 4, 50
	all := make([]int64, 0, npes*slots)
	rounds := 0
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 8})
		res, err := Permutation(rt, PermutationConfig{SlotsPerPE: slots, Seed: 11})
		if err != nil {
			panic(err)
		}
		mu.Lock()
		all = append(all, res.Slots...)
		if pe.Rank() == 0 {
			rounds = res.Rounds
		}
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != npes*slots {
		t.Fatalf("permutation length %d, want %d", len(all), npes*slots)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("not a permutation: position %d holds %d", i, v)
		}
	}
	if rounds < 2 {
		t.Errorf("dart throwing finished in %d round(s); collisions should force retries", rounds)
	}
}

func TestPermutationValidatesConfig(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		if _, err := Permutation(rt, PermutationConfig{SlotsPerPE: 0}); err == nil {
			panic("expected config error")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMatchesReference(t *testing.T) {
	g := testGraph(t, 7, 4, 5)
	// Reference: the transpose of the lower triangle holds, for each
	// row c, every r with an edge (r, c), r > c.
	want := map[int64][]int64{}
	for r := int64(0); r < g.NumVertices(); r++ {
		for _, c := range g.Row(r) {
			want[c] = append(want[c], r)
		}
	}

	const npes, perNode = 6, 3
	dist := graph.NewCyclicDist(npes)
	got := map[int64][]int64{}
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 16})
		rows, err := Transpose(rt, g, dist)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		for r, vals := range rows {
			if dist.Owner(r) != pe.Rank() {
				panic("transpose row delivered to wrong owner")
			}
			got[r] = vals
		}
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("transposed %d rows, want %d", len(got), len(want))
	}
	for r, wv := range want {
		gv := got[r]
		if len(gv) != len(wv) {
			t.Fatalf("row %d: %d entries, want %d", r, len(gv), len(wv))
		}
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("row %d entry %d: %d, want %d", r, i, gv[i], wv[i])
			}
		}
	}
}
