package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"actorprof/internal/core"
	"actorprof/internal/viz"
	"actorprof/internal/whatif"
)

// runWhatIf is the "actorprof whatif <trace-dir>" subcommand: it loads
// the run's recorded schedule, projects the requested perturbation, and
// prints the critical path, the bottleneck ranking, and the projected
// T_MAIN/T_COMM/T_PROC deltas. Every projection is differentially
// validated against a deterministic replay before anything prints.
func runWhatIf(args []string) error {
	fs := flag.NewFlagSet("actorprof whatif", flag.ContinueOnError)
	var (
		network = fs.Float64("scale-network", 0, "scale network latency+per-byte cost by this factor")
		local   = fs.Float64("scale-local", 0, "scale local-copy cost by this factor")
		quiet   = fs.Float64("scale-quiet", 0, "scale quiet/signal latency by this factor")
		instr   = fs.Float64("scale-instr", 0, "scale per-instruction cost by this factor")
		ingest  = fs.Float64("scale-ingest", 0, "scale per-item ingest cost by this factor")
		actor   = fs.Int64("actor", -1, "actor ID for -speedup (from the bottleneck ranking)")
		speedup = fs.Float64("speedup", 0, "make the -actor handler this many times faster")
		top     = fs.Int("top", 8, "bottleneck entries to print")
		edges   = fs.Int("edges", 12, "critical-path edges to print per window")
		svgDir  = fs.String("svg", "", "also write whatif.svg and bottleneck.svg into this directory")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof whatif [-scale-network F] [-scale-local F] [-scale-quiet F] [-scale-instr F] [-scale-ingest F] [-actor ID -speedup F] [-svg dir] <trace-dir>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one trace directory, got %d args", fs.NArg())
	}
	dir := fs.Arg(0)
	switch {
	case *top < 1:
		return fmt.Errorf("-top must be at least 1, got %d", *top)
	case *edges < 0:
		return fmt.Errorf("-edges must not be negative, got %d", *edges)
	case *speedup != 0 && *actor < 0:
		return fmt.Errorf("-speedup needs -actor <id>; run without -speedup first to see the bottleneck ranking's actor IDs")
	}
	// A factor given is a factor: 0 is what an unset one reads as.
	var zero error
	fs.Visit(func(f *flag.Flag) {
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && v == 0 && zero == nil {
			zero = fmt.Errorf("-%s %v", f.Name, whatif.CheckFactor(v))
		}
	})
	if zero != nil {
		return zero
	}

	sched, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		return err
	}
	base, err := whatif.NewBaseline(sched)
	if err != nil {
		return err
	}
	scales := whatif.CostScales{Network: *network, Local: *local, Quiet: *quiet, Instr: *instr, Ingest: *ingest}
	q := whatif.Question{Scales: scales, Actor: *actor, Speedup: *speedup}
	if err := base.Check(q, func(part string) string {
		if part == "speedup" || part == "actor" {
			return "-" + part
		}
		return "-scale-" + part
	}); err != nil {
		return err
	}
	rep, err := base.Compare(base.Perturbation(q))
	if err != nil {
		return err
	}

	title := q.Phrase()
	fmt.Printf("what-if over %s: %s\n", dir, title)
	fmt.Printf("(projection validated bit-for-bit against a deterministic replay)\n\n")

	if err := core.WhatIfPlot(rep, "projected totals").RenderText(os.Stdout); err != nil {
		return err
	}

	fmt.Printf("\ncritical path (baseline):\n")
	for _, w := range rep.Baseline.Windows {
		fmt.Printf("  window %d: [%d, %d) span %d cycles, %d edges\n",
			w.Index, w.Start, w.End, w.Span, len(w.Path.Edges))
		for i, e := range w.Path.Edges {
			if i >= *edges {
				fmt.Printf("    ... %d more edges\n", len(w.Path.Edges)-i)
				break
			}
			b := e.Breakdown
			fmt.Printf("    PE %d gen %d: %d cycles (MAIN %d, COMM %d, PROC %d; net %d, quiet %d, instr %d, ingest %d)\n",
				e.PE, e.Gen, e.End-e.Start, b.Main, b.Comm, b.Proc, b.Network, b.Quiet, b.Instr, b.Ingest)
		}
	}

	if len(rep.Baseline.Bottlenecks) > 0 {
		fmt.Printf("\n")
		if err := core.BottleneckPlot(rep.Baseline, *top, "bottleneck ranking (baseline)").RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(speed one up with: actorprof whatif -actor %d -speedup 2 %s)\n",
			rep.Baseline.Bottlenecks[0].Actor, dir)
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for _, fig := range []struct {
			name string
			plot viz.Plot
		}{
			{"whatif", core.WhatIfPlot(rep, "what-if: "+title)},
			{"bottleneck", core.BottleneckPlot(rep.Projected, *top, "bottleneck ranking (projected)")},
		} {
			doc, err := fig.plot.RenderSVG()
			if err != nil {
				return err
			}
			path := filepath.Join(*svgDir, fig.name+".svg")
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}
