// Command actorprof is the ActorProf visualization utility: it renders
// the trace files a profiled run produced (PEi_send.csv, PEi_PAPI.csv,
// overall.txt, physical.txt) as terminal plots and, optionally, SVG
// documents.
//
// It mirrors the paper's run-time flags:
//
//	-l    logical-trace heatmap      (logical.py)
//	-lp   PAPI bar graph             (papi.py)
//	-s    overall stacked bar graph  (Overall.py), absolute and relative
//	-p    physical-trace heatmap     (physical.py)
//
// plus the quartile violin plots of the case study:
//
//	-violin        logical+physical violins
//	-svg DIR       also write every selected plot as an SVG into DIR
//	-event NAME    PAPI event for -lp (default PAPI_TOT_INS)
//
// Usage:
//
//	actorprof [flags] <trace-dir>
//	actorprof export [-out file] [-timeline file.svg] [-index] <trace-dir>
//
// With no plot flags, every plot the trace directory supports is
// rendered. The export subcommand writes the physical trace in Google
// Trace Event JSON (a paper future-work item) as a full-model Perfetto /
// chrome://tracing document (durations, counters, process metadata),
// can rebuild the time-index sidecar (-index), and can render the
// windowed activity timeline as SVG (-timeline).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "actorprof:", err)
		os.Exit(1)
	}
}

// runExport is the "actorprof export <trace-dir>" subcommand: it writes
// the physical trace in the full-model Perfetto form, optionally
// rebuilds the time-index sidecar first, and can render the windowed
// activity timeline as SVG.
func runExport(args []string) error {
	fs := flag.NewFlagSet("actorprof export", flag.ContinueOnError)
	var (
		out      = fs.String("out", "", `output file (default <trace-dir>/trace.perfetto.json, "-" for stdout)`)
		timeline = fs.String("timeline", "", "also render the activity timeline SVG to this file")
		lod      = fs.Int("lod", 1, "pyramid level of detail for -timeline (>= 1)")
		index    = fs.Bool("index", false, "(re)build the time-index sidecar (physical.idx) before exporting")
		workers  = fs.Int("workers", 0, "parallel trace-parse workers (0 = GOMAXPROCS)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof export [-out file] [-timeline file.svg] [-index] <trace-dir>")
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

	if *index {
		built, err := trace.BuildTimeIndex(dir)
		if err != nil {
			return fmt.Errorf("building time index for %s: %w", dir, err)
		}
		if built {
			fmt.Fprintf(os.Stderr, "actorprof: rebuilt time index for %s\n", dir)
		}
	}

	phys, _, err := trace.ReadPhysical(dir, trace.ReadOptions{Workers: *workers})
	if err != nil {
		return fmt.Errorf("reading trace directory %s: %w", dir, err)
	}
	if !phys.Config.Physical {
		return fmt.Errorf("trace %s has no physical trace; nothing to export", dir)
	}

	dest := *out
	if dest == "" {
		dest = filepath.Join(dir, "trace.perfetto.json")
	}
	var w io.Writer = os.Stdout
	var f *os.File
	if dest != "-" {
		if f, err = os.Create(dest); err != nil {
			return err
		}
		w = f
	}
	err = phys.ExportPerfetto(w)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if dest != "-" {
		fmt.Printf("wrote Trace Event JSON to %s\n", dest)
	}

	if *timeline != "" {
		if *lod < 1 {
			return fmt.Errorf("-timeline needs -lod >= 1, got %d", *lod)
		}
		res, err := trace.QueryWindow(dir, trace.Window{T0: math.MinInt64, T1: math.MaxInt64, LOD: *lod})
		if err != nil {
			return err
		}
		tl, err := core.ActivityTimeline(res,
			fmt.Sprintf("Physical transfers over time (LOD %d)", res.LOD))
		if err != nil {
			return err
		}
		doc, err := tl.RenderSVG()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*timeline, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote activity timeline SVG to %s\n", *timeline)
	}
	return nil
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "export" {
		return runExport(args[1:])
	}
	if len(args) > 0 && args[0] == "whatif" {
		return runWhatIf(args[1:])
	}
	fs := flag.NewFlagSet("actorprof", flag.ContinueOnError)
	var (
		logical   = fs.Bool("l", false, "render the logical-trace heatmap")
		papiBar   = fs.Bool("lp", false, "render the PAPI counter bar graph")
		overall   = fs.Bool("s", false, "render the overall MAIN/COMM/PROC stacked bars")
		physical  = fs.Bool("p", false, "render the physical-trace heatmap")
		violins   = fs.Bool("violin", false, "render quartile violin plots")
		svgDir    = fs.String("svg", "", "directory to also write SVG files into")
		eventName = fs.String("event", "PAPI_TOT_INS", "PAPI event for -lp")
		workers   = fs.Int("workers", 0, "parallel trace-parse workers (0 = GOMAXPROCS)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof [-l] [-lp] [-s] [-p] [-violin] [-svg dir] <trace-dir>")
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

	// Every standard plot consumes only aggregate matrices, so the trace
	// is folded into an O(PEs^2) Summary while it streams off disk.
	set, _, err := trace.ReadSummary(dir, trace.ReadOptions{Workers: *workers})
	if err != nil {
		return fmt.Errorf("reading trace directory %s: %w", dir, err)
	}
	fmt.Printf("trace: %s (%d PEs, %d per node)\n\n", dir, set.NumPEs, set.PEsPerNode)

	all := !*logical && !*papiBar && !*overall && !*physical && !*violins
	// Degenerate and partial directories must produce a friendly error,
	// not a silent no-op (or, historically, a stats panic on empty violin
	// input): tell the user which feature the trace is missing.
	if !all {
		switch {
		case *logical && !set.Config.Logical:
			return fmt.Errorf("trace %s has no logical trace (-l needs PEi_send.csv files; enable trace.Config.Logical)", dir)
		case *physical && !set.Config.Physical:
			return fmt.Errorf("trace %s has no physical trace (-p needs physical.txt; enable trace.Config.Physical)", dir)
		case *violins && !set.Config.Logical && !set.Config.Physical:
			return fmt.Errorf("trace %s has neither logical nor physical records; nothing to plot with -violin", dir)
		case *papiBar && len(set.Config.PAPIEvents) == 0:
			return fmt.Errorf("trace %s has no PAPI events (-lp needs PEi_PAPI.csv files and papi_events in the meta file)", dir)
		case *overall && !set.Config.Overall:
			return fmt.Errorf("trace %s has no overall breakdown (-s needs overall.txt; enable trace.Config.Overall)", dir)
		}
	} else if !set.Config.Logical && !set.Config.Physical && !set.Config.Overall &&
		len(set.Config.PAPIEvents) == 0 {
		return fmt.Errorf("trace %s has no renderable data (only the meta file); was the run traced?", dir)
	}
	svg := func(name, doc string) error {
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*svgDir, name), []byte(doc), 0o644)
	}

	selected := map[string]bool{"l": *logical, "lp": *papiBar, "s": *overall, "p": *physical, "violin": *violins}
	for _, p := range core.Plots {
		if !all && !selected[p.Flag] {
			continue
		}
		if _, missing := p.Missing(set); missing {
			continue
		}
		// With a single recorded counter the grouped plot repeats papi-bar.
		if p.Kind == "papi-grouped" && len(set.Config.PAPIEvents) < 2 {
			continue
		}
		var ev papi.Event
		if p.UsesEvent {
			if ev, err = papi.EventByName(*eventName); err != nil {
				return err
			}
		}
		plot := p.Build(set, ev)
		if err := plot.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := plot.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg(p.SVGFile(), doc); err != nil {
			return err
		}
	}
	if all || *papiBar {
		// Named user segments (segments.txt), when the trace has any.
		hasSegs := false
		for _, recs := range set.Segments {
			if len(recs) > 0 {
				hasSegs = true
				break
			}
		}
		if hasSegs {
			fmt.Println("User segments (per PE):")
			for pe := 0; pe < set.NumPEs; pe++ {
				for _, s := range set.Segments[pe] {
					fmt.Printf("  [PE%d] %-24s count=%-8d cycles=%-12d", pe, s.Name, s.Count, s.Cycles)
					for i, ev := range set.Config.PAPIEvents {
						if i < len(s.Counters) {
							fmt.Printf(" %s=%d", ev, s.Counters[i])
						}
					}
					fmt.Println()
				}
			}
			fmt.Println()
		}
	}
	return nil
}
