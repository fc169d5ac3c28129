package apps

import (
	"math"
	"sync"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/graph"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

func cfg(npes, perNode int) shmem.Config {
	return shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}}
}

func testGraph(t *testing.T, scale, ef int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.Graph500(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTriangleCountMatchesSerial(t *testing.T) {
	g := testGraph(t, 8, 8, 21)
	want := g.CountTrianglesSerial()
	if want == 0 {
		t.Fatal("test graph has no triangles; pick another seed")
	}
	for _, tc := range []struct {
		name          string
		npes, perNode int
		dist          func(p int) graph.Distribution
	}{
		{"cyclic-1node", 8, 8, func(p int) graph.Distribution { return graph.NewCyclicDist(p) }},
		{"cyclic-2node", 8, 4, func(p int) graph.Distribution { return graph.NewCyclicDist(p) }},
		{"range-1node", 8, 8, func(p int) graph.Distribution { return graph.NewRangeDist(g, p) }},
		{"range-2node", 8, 4, func(p int) graph.Distribution { return graph.NewRangeDist(g, p) }},
		{"block-1node", 8, 8, func(p int) graph.Distribution { return graph.NewBlockDist(g.NumVertices(), p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dist := tc.dist(tc.npes)
			counts := make([]int64, tc.npes)
			var mu sync.Mutex
			err := shmem.Run(cfg(tc.npes, tc.perNode), func(pe *shmem.PE) {
				rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 32})
				got, err := TriangleCount(rt, g, dist)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				counts[pe.Rank()] = got
				mu.Unlock()
				rt.Close()
				pe.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			for pe, got := range counts {
				if got != want {
					t.Fatalf("PE %d counted %d triangles, want %d", pe, got, want)
				}
			}
		})
	}
}

func TestTriangleCountRejectsMismatchedDistribution(t *testing.T) {
	g := testGraph(t, 6, 4, 3)
	err := shmem.Run(cfg(4, 4), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		if _, err := TriangleCount(rt, g, graph.NewCyclicDist(8)); err == nil {
			panic("expected distribution mismatch error")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConservesMass(t *testing.T) {
	const npes, perNode, updates = 8, 4, 300
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		res, err := Histogram(rt, HistogramConfig{
			UpdatesPerPE: updates, TableSizePerPE: 32, Seed: 99,
		})
		if err != nil {
			panic(err)
		}
		if res.GlobalMass != npes*updates {
			panic("histogram mass mismatch")
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramValidatesConfig(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		if _, err := Histogram(rt, HistogramConfig{UpdatesPerPE: 1, TableSizePerPE: 0}); err == nil {
			panic("expected config error")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexGatherFetchesCorrectValues(t *testing.T) {
	const npes, perNode = 8, 4
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 8})
		got, err := IndexGather(rt, IndexGatherConfig{
			RequestsPerPE: 200, TableSizePerPE: 64, Seed: 5,
		})
		if err != nil {
			panic(err) // IndexGather self-verifies every response
		}
		if len(got) != 200 {
			panic("wrong number of responses")
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBFSMatchesSerial(t *testing.T) {
	g := testGraph(t, 7, 8, 17)
	full := g.Symmetrize()
	want := serialBFS(full, 0)
	var wantVisited int64
	for _, l := range want {
		if l >= 0 {
			wantVisited++
		}
	}
	const npes, perNode = 6, 3
	dist := graph.NewCyclicDist(npes)
	merged := make([]int64, full.NumVertices())
	for i := range merged {
		merged[i] = -1
	}
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 16})
		res, err := BFS(rt, full, dist, 0)
		if err != nil {
			panic(err)
		}
		if res.Visited != wantVisited {
			panic("visited count mismatch")
		}
		mu.Lock()
		for i := int64(0); i < full.NumVertices(); i++ {
			if dist.Owner(i) == pe.Rank() {
				merged[i] = res.Level[i]
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
		if merged[i] != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, merged[i], want[i])
		}
	}
}

func TestBFSValidatesRoot(t *testing.T) {
	g := testGraph(t, 6, 4, 3)
	full := g.Symmetrize()
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		if _, err := BFS(rt, full, graph.NewCyclicDist(2), -1); err == nil {
			panic("expected root range error")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageRankMatchesSerial(t *testing.T) {
	g := testGraph(t, 6, 6, 13)
	full := g.Symmetrize()
	const damping, iters = 0.85, 5
	want := serialPageRank(full, damping, iters)

	const npes, perNode = 4, 2
	dist := graph.NewBlockDist(full.NumVertices(), npes)
	got := make([]float64, full.NumVertices())
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{BufferItems: 16})
		res, err := PageRank(rt, full, dist, PageRankConfig{Damping: damping, Iterations: iters})
		if err != nil {
			panic(err)
		}
		if res.Sum < 0.9 || res.Sum > 1.1 {
			panic("rank mass escaped")
		}
		mu.Lock()
		for i := int64(0); i < full.NumVertices(); i++ {
			if dist.Owner(i) == pe.Rank() {
				got[i] = res.Rank[i]
			}
		}
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Distributed accumulation order differs, so compare with a
	// floating-point tolerance; the dangling fixed-point handling is
	// tiny relative to rank magnitudes.
	for i := range got {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9+1e-6*math.Abs(want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g (diff %g)", i, got[i], want[i], diff)
		}
	}
}

func TestPageRankValidatesConfig(t *testing.T) {
	g := testGraph(t, 6, 4, 3)
	full := g.Symmetrize()
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		d := graph.NewCyclicDist(2)
		if _, err := PageRank(rt, full, d, PageRankConfig{Damping: 1.5, Iterations: 3}); err == nil {
			panic("expected damping error")
		}
		if _, err := PageRank(rt, full, d, PageRankConfig{Damping: 0.85, Iterations: 0}); err == nil {
			panic("expected iterations error")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
