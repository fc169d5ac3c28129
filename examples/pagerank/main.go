// PageRank: actor-based synchronous PageRank - the third intro workload
// of the paper - with an ActorProf-guided distribution comparison.
//
// The program runs the same PageRank twice, under 1D Block and 1D Range
// partitioning, and uses the overall breakdown to show which
// distribution spends less time in the COMM regime: the kind of
// data-distribution experiment the paper's conclusion recommends
// ("ActorProf suggests experimenting with data-distributions as an
// opportunity for improvement").
//
// Run:
//
//	go run ./examples/pagerank [-scale 11] [-iters 5]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/graph"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

func main() {
	scale := flag.Int("scale", 11, "R-MAT scale")
	iters := flag.Int("iters", 5, "PageRank iterations")
	flag.Parse()
	if err := run(*scale, *iters, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(scale, iters int, out io.Writer) error {
	if iters < 1 {
		return fmt.Errorf("-iters %d: PageRank runs at least 1 iteration", iters)
	}
	g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, 99))
	if err != nil {
		return err
	}
	full := g.Symmetrize()
	const numPEs, perNode = 16, 16

	runOnce := func(dist graph.Distribution) (*trace.Set, float64, error) {
		var sum float64
		set, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: numPEs, PEsPerNode: perNode},
			Trace:   core.FullTrace(),
		}, func(rt *actor.Runtime) error {
			res, err := apps.PageRank(rt, full, dist, apps.PageRankConfig{
				Damping: 0.85, Iterations: iters,
			})
			if err != nil {
				return err
			}
			if rt.PE().Rank() == 0 {
				sum = res.Sum
			}
			return nil
		})
		return set, sum, err
	}

	fmt.Fprintf(out, "PageRank over %d vertices, %d undirected edges, %d iterations\n\n",
		full.NumVertices(), g.NumEdges(), iters)

	for _, d := range []graph.Distribution{
		graph.NewBlockDist(full.NumVertices(), numPEs),
		graph.NewRangeDist(full, numPEs),
	} {
		set, sum, err := runOnce(d)
		if err != nil {
			return err
		}
		var tm, tc, tp, tt, wall int64
		for _, r := range set.Overall {
			tm += r.TMain
			tc += r.TComm
			tp += r.TProc
			tt += r.TTotal
			if r.TTotal > wall {
				wall = r.TTotal
			}
		}
		fmt.Fprintf(out, "%-10s rank mass %.6f | wall %12d cycles | MAIN %4.1f%% COMM %4.1f%% PROC %4.1f%% | send imb %.2fx\n",
			d.Name(), sum, wall,
			100*float64(tm)/float64(tt), 100*float64(tc)/float64(tt), 100*float64(tp)/float64(tt),
			trace.MaxOverMean(set.LogicalMatrix().SendTotals()))
	}
	fmt.Fprintln(out, "\n(1D Range balances edges - and therefore PageRank's contribution messages -")
	fmt.Fprintln(out, " so its straggler-bound COMM time shrinks; ActorProf makes that visible)")
	return nil
}
