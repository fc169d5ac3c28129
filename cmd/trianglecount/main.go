// Command trianglecount runs the paper's Section IV case study:
// distributed triangle counting over an R-MAT graph under a chosen row
// distribution, with ActorProf attached. It validates the count against
// the serial reference, prints a summary with the case study's headline
// statistics, and writes the ActorProf trace files (ready for the
// actorprof visualizer).
//
// Usage:
//
//	trianglecount [flags]
//
//	-scale N      R-MAT scale (default $ACTORPROF_SCALE or 12; paper: 16)
//	-ef N         edge factor (default 16, as the paper)
//	-seed N       R-MAT seed (default 42)
//	-pes N        number of PEs (default 16)
//	-per-node N   PEs per node (default 16; the paper runs 16/32 PEs on 1/2 nodes)
//	-dist NAME    cyclic | range | block (default cyclic)
//	-buf N        conveyor buffer items (default 64)
//	-out DIR      trace output directory (default actorprof_trace)
//	-format F     trace file format: binary | csv (default binary, the
//	              APBF *.bin files; csv writes the paper's text layout too)
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"actorprof/internal/conveyor"
	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trianglecount:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trianglecount", flag.ContinueOnError)
	defScale, envErr := core.EnvScale()
	var (
		scale   = fs.Int("scale", defScale, "R-MAT scale (2^scale vertices)")
		ef      = fs.Int("ef", 16, "R-MAT edge factor")
		seed    = fs.Uint64("seed", 42, "R-MAT seed")
		pes     = fs.Int("pes", 16, "number of PEs")
		perNode = fs.Int("per-node", 16, "PEs per node")
		dist    = fs.String("dist", "cyclic", "row distribution: cyclic | range | block")
		buf     = fs.Int("buf", 64, "conveyor aggregation buffer (items)")
		out     = fs.String("out", "actorprof_trace", "trace output directory")
		format  = fs.String("format", "binary", "trace file format: binary (APBF) | csv (APBF plus the paper's text layout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if envErr != nil {
		return envErr
	}
	if *scale < 1 || *ef < 1 || *buf < 1 {
		return fmt.Errorf("scale %d, ef %d, buf %d: an R-MAT scale, an edge factor and a conveyor buffer are each at least 1", *scale, *ef, *buf)
	}
	machine := sim.Machine{NumPEs: *pes, PEsPerNode: *perNode}
	if err := cmp.Or(machine.Validate(), core.DistKind(*dist).Validate()); err != nil {
		return err
	}

	tf, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}
	cfg := core.FullTrace()
	cfg.Format = tf
	exp := core.TriangleExperiment{
		Scale: *scale, EdgeFactor: *ef, Seed: *seed,
		NumPEs: *pes, PEsPerNode: *perNode,
		Dist:        core.DistKind(*dist),
		Trace:       cfg,
		BufferItems: *buf,
	}
	fmt.Printf("triangle counting: scale=%d ef=%d seed=%d, %d PEs on %d node(s), %s\n",
		*scale, *ef, *seed, *pes, machine.NumNodes(), core.DistKind(*dist).Label())

	rep, err := core.RunTriangle(exp)
	if err != nil {
		return err
	}
	g := rep.Graph
	fmt.Printf("graph: %d vertices, %d edges, %d wedges (= messages)\n",
		g.NumVertices(), g.NumEdges(), g.Wedges())
	fmt.Printf("triangles: %d (validated against the serial count)\n", rep.Triangles)

	set := rep.Set
	lm := set.LogicalMatrix()
	fmt.Printf("\nlogical trace:  %d sends; per-PE send imbalance (max/mean) %.2fx, recv %.2fx\n",
		lm.Total(), trace.MaxOverMean(lm.SendTotals()), trace.MaxOverMean(lm.RecvTotals()))
	pm := set.PhysicalMatrix()
	kinds := set.PhysicalKindCounts()
	fmt.Printf("physical trace: %d buffers (local_send %d, nonblock_send %d, nonblock_progress %d)\n",
		pm.Total(), kinds[conveyor.LocalSend], kinds[conveyor.NonblockSend],
		kinds[conveyor.NonblockProgress])
	ins := set.PAPITotalsPerPE(papi.TOT_INS)
	fmt.Printf("PAPI: TOT_INS imbalance (max/mean) %.2fx\n", trace.MaxOverMean(ins))

	tm, tc, tp := core.Shares(set)
	fmt.Printf("overall: MAIN %.1f%%  COMM %.1f%%  PROC %.1f%% of all PEs' cycles; the longest PE took %d\n",
		100*tm, 100*tc, 100*tp, core.MaxTotal(set))

	if err := set.WriteFiles(*out); err != nil {
		return err
	}
	if err := whatif.WriteScheduleFile(*out, rep.Schedule); err != nil {
		return err
	}
	fmt.Printf("\ntrace files written to %s (render with: actorprof %s; project with: actorprof whatif %s)\n",
		*out, *out, *out)
	return nil
}
