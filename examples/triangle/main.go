// Triangle: the paper's Section IV case study in one program.
//
// Runs distributed triangle counting over an R-MAT graph twice - under
// the 1D Cyclic and the 1D Range distribution - with full ActorProf
// tracing, then prints the comparisons the paper draws: the logical
// heatmaps (Figure 3 - note the (L) shape under Range), the quartile
// violins (Figure 5), and the overall breakdowns (Figure 12), plus the
// headline imbalance factors. Trace files for both runs are written
// under ./triangle_traces for the actorprof visualizer.
//
// Run:
//
//	go run ./examples/triangle [-scale 11]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"

	"actorprof/internal/core"
)

func main() {
	scale := flag.Int("scale", 11, "R-MAT scale")
	flag.Parse()
	if err := run(*scale, "triangle_traces", os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(scale int, traceDir string, out io.Writer) error {
	var reports []*core.TriangleReport
	for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
		exp := core.TriangleExperiment{
			Scale: scale, EdgeFactor: 16, Seed: 42,
			NumPEs: 16, PEsPerNode: 16,
			Dist: dist,
		}
		if len(reports) > 0 {
			exp.Graph = reports[0].Graph // share the input graph
		}
		rep, err := core.RunTriangle(exp)
		if err != nil {
			return err
		}
		reports = append(reports, rep)

		dir := filepath.Join(traceDir, string(dist))
		if err := rep.Set.WriteFiles(dir); err != nil {
			return err
		}
	}

	cy, rg := reports[0], reports[1]
	fmt.Fprintf(out, "graph: %d vertices, %d edges, %d triangles (validated on both runs)\n\n",
		cy.Graph.NumVertices(), cy.Graph.NumEdges(), cy.Triangles)

	for _, rep := range reports {
		title := fmt.Sprintf("Logical trace heatmap - %s", rep.DistName)
		if err := core.LogicalHeatmap(rep.Set, title).RenderText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	for _, rep := range reports {
		title := fmt.Sprintf("Quartile violin - %s", rep.DistName)
		if err := core.LogicalViolin(rep.Set, title).RenderText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	for _, rep := range reports {
		title := fmt.Sprintf("Overall breakdown - %s", rep.DistName)
		if err := core.OverallStacked(rep.Set, true, title).RenderText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	// The paper's headline comparisons.
	cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
	fmt.Fprintln(out, "case-study observations:")
	fmt.Fprintf(out, "  max sends:  cyclic %d vs range %d (%.1fx)\n",
		slices.Max(cyM.SendTotals()), slices.Max(rgM.SendTotals()), core.MaxRatio(cyM.SendTotals(), rgM.SendTotals()))
	fmt.Fprintf(out, "  max recvs:  cyclic %d vs range %d (%.1fx)\n",
		slices.Max(cyM.RecvTotals()), slices.Max(rgM.RecvTotals()), core.MaxRatio(cyM.RecvTotals(), rgM.RecvTotals()))
	fmt.Fprintf(out, "  total time: cyclic %d vs range %d cycles -> range is %.1fx faster\n",
		core.MaxTotal(cy.Set), core.MaxTotal(rg.Set), core.Speedup(cy.Set, rg.Set))
	fmt.Fprintf(out, "\ntrace files in %s/{cyclic,range} (render with cmd/actorprof)\n", traceDir)
	return nil
}
