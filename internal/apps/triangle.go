// Package apps implements the FA-BSP applications used by the paper:
// distributed triangle counting (the Section IV case study), the
// histogram program of Listings 1-2, and further irregular workloads
// from the paper's introduction and the bale suite (index-gather, BFS,
// PageRank). Every application is written against the actor.Selector
// API, is instrumentable by ActorProf, and models its user-region
// computation through the PAPI cost engine.
//
// Each application function runs SPMD: call it from every PE's body with
// the same arguments. The graph is shared read-only across PEs, which
// stands in for the paper's setup where each PE reads its partition from
// LUSTRE.
package apps

import (
	"fmt"
	"math/bits"

	"actorprof/internal/actor"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
)

// TriangleCount runs the paper's Algorithm 1 on one PE: iterate over the
// local rows' neighbor pairs (l_ij, l_ik with k < j), send an active
// message (j, k) to the PE owning row j, and count on receipt when l_jk
// exists. Returns the global triangle count (identical on every PE).
//
// The kernel - and only the kernel - is profiled, matching the case
// study: callers that want setup excluded should run graph
// construction in rt.Unprofiled, not this call.
func TriangleCount(rt *actor.Runtime, g *graph.Graph, dist graph.Distribution) (int64, error) {
	pe := rt.PE()
	if dist.NumPEs() != pe.NumPEs() {
		return 0, fmt.Errorf("apps: distribution built for %d PEs, world has %d",
			dist.NumPEs(), pe.NumPEs())
	}
	me := pe.Rank()
	var localCount int64

	sel, err := actor.NewSelector(rt, 1, actor.U32PairCodec())
	if err != nil {
		return 0, fmt.Errorf("apps: triangle selector: %w", err)
	}
	sel.Process(0, func(msg actor.U32Pair, src int) {
		j, k := int64(msg.A), int64(msg.B)
		// ACTORPROCESS(j, k): count when l_jk = 1. The handler's
		// user-region work is a binary search over row j.
		rt.Work(probeWork(g.Degree(j)))
		if g.HasEdge(j, k) {
			localCount++
		}
	})

	rows := graph.LocalRows(g, dist, me)
	rt.Finish(func() {
		sel.Start()
		for _, i := range rows {
			row := g.Row(i)
			// Enumerating the neighbor pairs of row i is MAIN-segment
			// local computation.
			rt.Work(papi.Work{
				Ins:    int64(len(row)) * 4,
				LstIns: int64(len(row)),
				Cyc:    int64(len(row)) * 2,
			})
			for a := 1; a < len(row); a++ {
				j := row[a]
				owner := dist.Owner(j)
				for b := 0; b < a; b++ {
					k := row[b] // k < j by sort order
					sel.Send(0, actor.U32Pair{A: uint32(j), B: uint32(k)}, owner)
				}
			}
		}
		sel.Done(0)
	})

	total := pe.AllReduceInt64(shmem.OpSum, localCount)
	return total, nil
}

// probeWork models the cost of one membership probe into a sorted row of
// degree d: a binary search whose every halving is a dependent,
// cache-unfriendly load over the large L structure (the dominant handler
// cost in real runs - each probe misses deep in the memory hierarchy).
func probeWork(d int64) papi.Work {
	steps := int64(bits.Len64(uint64(d))) + 1
	return papi.Work{
		Ins:    30 + 10*steps,
		LstIns: 6 + 3*steps,
		L1DCM:  1 + steps/2,
		L2DCM:  steps / 4,
		TLBDM:  1,
		BrMsp:  2,
		Cyc:    20 + 12*steps,
	}
}
