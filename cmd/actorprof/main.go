// Command actorprof is the ActorProf visualization utility: it renders
// the trace directory a profiled run produced as terminal plots and,
// optionally, SVG documents.
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
//	-event NAME    PAPI event for -lp (default: the first one recorded)
//
// Usage:
//
//	actorprof [flags] <trace-dir>
//	actorprof export [-out file] [-timeline file.svg] [-index] [-schedule] <trace-dir>
//	actorprof import <paper-dir> <out-dir>
//
// With no plot flags, every plot the trace directory supports is
// rendered. The export subcommand writes the physical trace in Google
// Trace Event JSON (a paper future-work item) as a full-model Perfetto /
// chrome://tracing document (durations, counters, process metadata),
// can rebuild the time-index sidecar (-index), and can render the
// windowed activity timeline as SVG (-timeline); -schedule exports the
// run's recorded what-if schedule as schedule.json instead. The import subcommand
// turns a directory that holds only the paper's text layout
// (PEi_send.csv, PEi_PAPI.csv, overall.txt, physical.txt) into one the
// readers open: APBF, with the paper's layout written again beside it.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"actorprof/internal/core"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
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
// activity timeline as SVG. With -schedule it writes the run's recorded
// schedule as schedule.json instead.
func runExport(args []string) error {
	fs := flag.NewFlagSet("actorprof export", flag.ContinueOnError)
	var (
		out      = fs.String("out", "", `output file (default <trace-dir>/trace.perfetto.json, or schedule.json with -schedule; "-" for stdout)`)
		timeline = fs.String("timeline", "", "also render the activity timeline SVG to this file")
		lod      = fs.Int("lod", 1, "pyramid level of detail for -timeline (>= 1)")
		index    = fs.Bool("index", false, "(re)build the time-index sidecar (physical.idx) before exporting")
		schedule = fs.Bool("schedule", false, "write the recorded what-if schedule as JSON instead of the Perfetto document")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof export [-out file] [-timeline file.svg] [-index] [-schedule] <trace-dir>")
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

	if *schedule {
		s, err := whatif.ReadScheduleFile(dir)
		if err != nil {
			return err
		}
		return writeOut(*out, filepath.Join(dir, trace.ScheduleJSONFile), "the schedule as JSON", s.WriteJSON)
	}

	if *index {
		built, err := trace.BuildTimeIndex(dir)
		if err != nil {
			return fmt.Errorf("building time index for %s: %w", dir, err)
		}
		if built {
			fmt.Fprintf(os.Stderr, "actorprof: rebuilt time index for %s\n", dir)
		}
	}

	phys, _, err := trace.ReadPhysical(dir, trace.ReadOptions{})
	if err != nil {
		return fmt.Errorf("reading trace directory %s: %w", dir, err)
	}
	if !phys.Config.Physical {
		return fmt.Errorf("trace %s has no physical trace; nothing to export", dir)
	}

	if err := writeOut(*out, filepath.Join(dir, "trace.perfetto.json"), "Trace Event JSON", phys.ExportPerfetto); err != nil {
		return err
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

// writeOut writes an export to dest - def when dest is empty, stdout
// when it is "-" - and says where it went.
func writeOut(dest, def, what string, write func(io.Writer) error) error {
	if dest == "" {
		dest = def
	}
	if dest == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("wrote %s to %s\n", what, dest)
	}
	return err
}

// runImport is the "actorprof import <paper-dir> <out-dir>" subcommand:
// it reads a directory in the paper's text layout - one written before
// APBF was the encoding the readers open, or by another tool - and
// writes it to out-dir as a trace directory, the paper's layout beside
// the APBF files. A line it cannot admit is skipped and counted.
func runImport(args []string) error {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: actorprof import <paper-dir> <out-dir>")
		return fmt.Errorf("expected a paper-layout directory and an output directory, got %d args", len(args))
	}
	set, skipped, err := trace.ImportPaper(args[0])
	if err != nil {
		return fmt.Errorf("importing %s: %w", args[0], err)
	}
	set.Config.Format = trace.FormatCSV
	if err := set.WriteFiles(args[1]); err != nil {
		return err
	}
	fmt.Printf("imported %s into %s (%d PEs, %d lines skipped)\n", args[0], args[1], set.NumPEs, skipped)
	return nil
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "export" {
		return runExport(args[1:])
	}
	if len(args) > 0 && args[0] == "whatif" {
		return runWhatIf(args[1:])
	}
	if len(args) > 0 && args[0] == "import" {
		return runImport(args[1:])
	}
	fs := flag.NewFlagSet("actorprof", flag.ContinueOnError)
	var (
		logical   = fs.Bool("l", false, "render the logical-trace heatmap")
		papiBar   = fs.Bool("lp", false, "render the PAPI counter bar graph")
		overall   = fs.Bool("s", false, "render the overall MAIN/COMM/PROC stacked bars")
		physical  = fs.Bool("p", false, "render the physical-trace heatmap")
		violins   = fs.Bool("violin", false, "render quartile violin plots")
		svgDir    = fs.String("svg", "", "directory to also write SVG files into")
		eventName = fs.String("event", "", "PAPI event for -lp (default: the first event the run recorded)")
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
	set, _, err := trace.ReadSummary(dir, trace.ReadOptions{})
	if err != nil {
		return fmt.Errorf("reading trace directory %s: %w", dir, err)
	}
	fmt.Printf("trace: %s (%d PEs, %d per node)\n\n", dir, set.NumPEs, set.PEsPerNode)

	all := !*logical && !*papiBar && !*overall && !*physical && !*violins
	selected := map[string]bool{"l": *logical, "lp": *papiBar, "s": *overall, "p": *physical, "violin": *violins}
	// Degenerate and partial directories must produce a friendly error,
	// not a silent no-op (or, historically, a stats panic on empty violin
	// input): a selected flag none of whose plots the trace can draw names
	// the first feature it lacks, as actorprofd's 404 does.
	if !all {
		drawable, lacks := map[string]bool{}, map[string]core.Feature{}
		for _, p := range core.Plots {
			if f, missing := p.Missing(set); !missing {
				drawable[p.Flag] = true
			} else if _, seen := lacks[p.Flag]; !seen {
				lacks[p.Flag] = f
			}
		}
		for _, p := range core.Plots {
			if selected[p.Flag] && !drawable[p.Flag] {
				return fmt.Errorf("trace %s: -%s has nothing to plot: %s", dir, p.Flag, lacks[p.Flag].Absent())
			}
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
		ev, err := p.Event(set, *eventName)
		if err != nil {
			return err
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
		// Named user segments, when the trace has any.
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
