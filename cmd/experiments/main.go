// Command experiments regenerates every figure of the paper's
// evaluation (Section IV, Figures 3-13) plus the Section IV-E tracing
// overhead study, writing plots (SVG + text), trace files, and a
// paper-vs-measured summary.
//
// Usage:
//
//	experiments [-scale N] [-out DIR] [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the whole
// run (gzipped protobuf; read them with go tool pprof): CPU samples, and
// the heap as the run ends, whose alloc_space view attributes every byte
// allocated during the run to the code that allocated it.
//
// The output directory (default "results") is laid out as:
//
//	results/
//	  summary.md                    paper-vs-measured, one row per figure
//	  fig03_.../  fig04_.../ ...    per-figure SVG + txt renderings
//	  traces/<nodes>n_<dist>/       raw ActorProf trace files
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/core"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
)

type runner struct {
	out     string
	scale   int
	reports map[string]*core.TriangleReport // key: "1n_cyclic" etc.
	summary []string
}

func main() {
	if err := runMain(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.Int("scale", core.EnvScale(), "R-MAT scale (paper: 16)")
	out := fs.String("out", "results", "output directory")
	sweep := fs.String("sweep", "", "comma-separated scales for a scale-sensitivity sweep (e.g. 10,11,12)")
	scaleup := fs.Bool("scaleup", false, "run the 256-PE scale-up scenario (isort + trianglecount) through the streaming-aggregation path")
	suPEs := fs.Int("scaleup-pes", 256, "scale-up PE count")
	suScale := fs.Int("scaleup-scale", 18, "scale-up R-MAT scale for trianglecount")
	suKeys := fs.Int("scaleup-keys", 20000, "scale-up isort keys per PE")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	r := &runner{out: *out, scale: *scale, reports: map[string]*core.TriangleReport{}}
	switch {
	case *scaleup:
		err = r.runScaleUp(*suPEs, 16, *suScale, *suKeys)
	case *sweep != "":
		err = r.runSweep(*sweep)
	default:
		err = r.run()
	}
	return errors.Join(err, stop())
}

// startProfiles starts the CPU profile when cpu names a file, and returns
// the function that ends it and, when mem names a file, writes the heap
// profile there.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if mem != "" {
			err = errors.Join(err, writeHeapProfile(mem))
		}
		return err
	}, nil
}

// writeHeapProfile writes the heap profile, with its in-use figures as of
// a collection run just before.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

// runSweep measures the scale sensitivity of the headline shape metrics:
// the paper's factors (cyclic/range max sends, TOT_INS imbalance, range
// speedup) at several R-MAT scales, demonstrating that the qualitative
// conclusions are scale-stable while the factors grow with the skew.
func (r *runner) runSweep(list string) error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	rows := []string{"| scale | vertices | messages | maxSend cy/rg | TOT_INS imb (cy) | range speedup |",
		"|---|---|---|---|---|---|"}
	for _, tok := range strings.Split(list, ",") {
		scale, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad sweep scale %q: %w", tok, err)
		}
		var reps []*core.TriangleReport // cyclic, then range
		if err := grid(scale, []int{1}, func(_ string, rep *core.TriangleReport, _ time.Time) error {
			reps = append(reps, rep)
			return nil
		}); err != nil {
			return err
		}
		cy, rg := reps[0], reps[1]
		cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
		rows = append(rows, fmt.Sprintf("| %d | %d | %d | %.1fx | %.1fx | %.1fx |",
			scale, cy.Graph.NumVertices(), cyM.Total(),
			ratio(slices.Max(cyM.SendTotals()), slices.Max(rgM.SendTotals())),
			trace.MaxOverMean(cy.Set.PAPITotalsPerPE(papi.TOT_INS)),
			ratio(maxTotal(cy.Set), maxTotal(rg.Set))))
		fmt.Println(rows[len(rows)-1])
	}
	content := "# Scale-sensitivity sweep (1 node, 16 PEs)\n\n" + strings.Join(rows, "\n") + "\n"
	path := filepath.Join(r.out, "scale_sweep.md")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep written to %s\n", path)
	return nil
}

// scaleUpTrace is the streaming-aggregation configuration the scale-up
// scenario runs under: the collector folds every record into O(PEs^2)
// matrices at collection time (paper Section VI: materializing the
// hundreds of millions of per-send records such runs emit is the thing
// that does not scale), with PAPI records batched per 256 sends.
func scaleUpTrace() trace.Config {
	return trace.Config{
		Logical: true, Overall: true, Aggregate: true,
		PAPIEvents:      []papi.Event{papi.TOT_INS},
		PAPIRecordEvery: 256,
	}
}

// runScaleUp exercises the scenarios far beyond the paper's 16/32-PE
// grid: the ISx integer sort and the triangle-count case study at
// hundreds of PEs, validated against their sequential references, with
// all profiling running through the streaming-aggregation path. Results
// land in <out>/scaleup.md.
func (r *runner) runScaleUp(pes, perNode, scale, keysPerPE int) error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	rows := []string{
		"| app | input | PEs | messages | validated | send imb (max/mean) | TOT_INS imb | host wall | ns/message | peak RSS so far | sleeps/PE mean (max) | yields/PE mean (max) |",
		"|---|---|---|---|---|---|---|---|---|---|---|---|",
	}
	// isort: the ISx weak-scaling input, batched dispatch.
	icfg := apps.ISortConfig{KeysPerPE: keysPerPE, BucketWidth: 1 << 16, Seed: 42}
	results := make([]apps.ISortResult, pes)
	row, err := scaleUpRow("isort", fmt.Sprintf("%d keys/PE", keysPerPE), pes, perNode,
		func(rt *actor.Runtime) (err error) {
			results[rt.PE().Rank()], err = apps.ISort(rt, icfg)
			return err
		},
		func() bool {
			want := apps.ISortSerial(pes, icfg)
			for pe := range results {
				if !slices.Equal(results[pe].Keys, want[pe]) {
					return false
				}
			}
			return true
		})
	if err != nil {
		return err
	}
	rows = append(rows, row)

	// trianglecount: the case-study kernel on an R-MAT graph several
	// scales past the paper's, under the stressed (cyclic) distribution.
	g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, 42))
	if err != nil {
		return err
	}
	dist, err := core.DistCyclic.Build(g, pes)
	if err != nil {
		return err
	}
	counts := make([]int64, pes)
	row, err = scaleUpRow("trianglecount",
		fmt.Sprintf("R-MAT scale %d (%d vertices, %d edges)", scale, g.NumVertices(), g.NumEdges()), pes, perNode,
		func(rt *actor.Runtime) (err error) {
			counts[rt.PE().Rank()], err = apps.TriangleCount(rt, g, dist)
			return err
		},
		func() bool {
			expected := g.CountTrianglesSerial()
			for _, c := range counts {
				if c != expected {
					return false
				}
			}
			return true
		})
	if err != nil {
		return err
	}
	rows = append(rows, row)

	content := fmt.Sprintf("# Scale-up scenario (%d PEs, streaming-aggregation path)\n\n%s\n",
		pes, strings.Join(rows, "\n"))
	path := filepath.Join(r.out, "scaleup.md")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("scale-up results written to %s\n", path)
	return nil
}

// scaleUpRow runs app on pes PEs through the streaming-aggregation path,
// checks its results with validated, and renders its scaleup.md row. The
// row's host cost is the wall-clock, the wall-clock per logical message,
// the process's peak RSS when the run finished (a high-water mark, so a
// later row's includes the earlier ones), and how each PE waited for
// work (DESIGN.md §16), read on the PE's own goroutine when app returns.
func scaleUpRow(name, input string, pes, perNode int, app func(*actor.Runtime) error, validated func() bool) (string, error) {
	waits := make([]shmem.ProgressStats, pes)
	start := time.Now()
	set, err := core.Run(core.Options{
		Machine: sim.Machine{NumPEs: pes, PEsPerNode: perNode},
		Trace:   scaleUpTrace(),
	}, func(rt *actor.Runtime) error {
		if err := app(rt); err != nil {
			return err
		}
		waits[rt.PE().Rank()] = rt.PE().ProgressStats()
		return nil
	})
	if err != nil {
		return "", err
	}
	wall := time.Since(start)
	ok := validated()
	lm := set.LogicalMatrix()
	row := fmt.Sprintf("| %s | %s | %d | %d | %v | %.1fx | %.1fx | %v | %.0f | %.0f MB | %s | %s |",
		name, input, pes, lm.Total(), ok,
		trace.MaxOverMean(lm.SendTotals()), trace.MaxOverMean(set.PAPITotalsPerPE(papi.TOT_INS)),
		wall.Round(time.Millisecond), float64(wall.Nanoseconds())/float64(lm.Total()), peakRSSMB(),
		meanMax(waits, func(w shmem.ProgressStats) int64 { return w.Sleeps }),
		meanMax(waits, func(w shmem.ProgressStats) int64 { return w.Yields }))
	fmt.Println(row)
	if !ok {
		return "", fmt.Errorf("scaleup: %s validation failed at %d PEs", name, pes)
	}
	return row, nil
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6 // bytes there, kilobytes elsewhere
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// meanMax renders one per-PE wait counter as "mean (max)".
func meanMax(waits []shmem.ProgressStats, counter func(shmem.ProgressStats) int64) string {
	var sum, mx int64
	for _, w := range waits {
		sum += counter(w)
		mx = max(mx, counter(w))
	}
	return fmt.Sprintf("%.0f (%d)", float64(sum)/float64(len(waits)), mx)
}

func (r *runner) run() error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	fmt.Printf("running the case-study grid at scale %d (paper: 16; set ACTORPROF_SCALE)\n", r.scale)

	// The 2x2 grid of the case study.
	if err := grid(r.scale, []int{1, 2}, func(key string, rep *core.TriangleReport, start time.Time) error {
		if len(r.reports) == 0 {
			fmt.Printf("graph: %d vertices, %d edges, %d wedges, %d triangles\n",
				rep.Graph.NumVertices(), rep.Graph.NumEdges(), rep.Graph.Wedges(), rep.Expected)
		}
		r.reports[key] = rep
		dir := filepath.Join(r.out, "traces", key)
		if err := rep.Set.WriteFiles(dir); err != nil {
			return err
		}
		fmt.Printf("  %-10s: ok in %v (trace -> %s)\n", key, time.Since(start).Round(time.Millisecond), dir)
		return nil
	}); err != nil {
		return err
	}

	r.summarize()
	for _, step := range []func() error{r.figures, r.overhead, r.apiProfile} {
		if err := step(); err != nil {
			return err
		}
	}

	summaryPath := filepath.Join(r.out, "summary.md")
	content := "# Reproduction summary (scale " + strconv.Itoa(r.scale) + ")\n\n" +
		"| Figure | Paper observation | Measured |\n|---|---|---|\n" +
		strings.Join(r.summary, "\n") + "\n"
	if err := os.WriteFile(summaryPath, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nsummary written to %s\n", summaryPath)
	fmt.Print("\n" + content)
	return nil
}

func (r *runner) add(fig, paper, measured string) {
	r.summary = append(r.summary, fmt.Sprintf("| %s | %s | %s |", fig, paper, measured))
}

// grid runs the case study at scale on 16 PEs per node for each count
// in nodes, under the cyclic and then the range distribution, all
// features on and sharing one R-MAT graph. It hands each validated run
// to ran with its key ("1n_cyclic") and the time the run started.
func grid(scale int, nodes []int, ran func(key string, rep *core.TriangleReport, start time.Time) error) error {
	var g *graph.Graph
	for _, n := range nodes {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			start := time.Now()
			rep, err := core.RunTriangle(core.TriangleExperiment{
				Scale: scale, EdgeFactor: 16, Seed: 42,
				NumPEs: n * 16, PEsPerNode: 16, Dist: dist, Graph: g,
			})
			if err != nil {
				return err
			}
			if !rep.Validated() {
				return fmt.Errorf("scale %d, %dn %s: validation failed", scale, n, dist)
			}
			g = rep.Graph
			if err := ran(fmt.Sprintf("%dn_%s", n, dist), rep, start); err != nil {
				return err
			}
		}
	}
	return nil
}

// save renders p as <name>.svg and <name>.txt under a figure directory.
func (r *runner) save(figDir, name string, p viz.Plot) error {
	dir := filepath.Join(r.out, figDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svg, err := p.RenderSVG()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".svg"), []byte(svg), 0o644); err != nil {
		return err
	}
	var txt bytes.Buffer
	if err := p.RenderText(&txt); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".txt"), txt.Bytes(), 0o644)
}

// rep returns the grid's run on nodes nodes under dist.
func (r *runner) rep(nodes int, dist core.DistKind) *core.TriangleReport {
	return r.reports[fmt.Sprintf("%dn_%s", nodes, dist)]
}

// figure is one plot file of the paper's figures.
type figure struct {
	dir, name string
	plot      viz.Plot
}

// figures saves the plots of Figures 3-13: the table of each run of the
// grid, then the paper's combined violin panel per node count.
func (r *runner) figures() error {
	for _, nodes := range []int{1, 2} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep, d, perNode := r.rep(nodes, dist), string(dist), fmt.Sprintf("%s_%dnode", dist, nodes)
			// fig names the directory of figure n+nodes: the one- and
			// two-node panels are consecutive figures.
			fig := func(n int, what string) string { return fmt.Sprintf("fig%02d_%s_%dnode", n+nodes, what, nodes) }
			figs := []figure{
				{fig(2, "logical_heatmap"), d, core.LogicalHeatmap(rep.Set, "Logical trace - "+rep.DistName)},
				{"fig05_logical_violin", perNode, core.LogicalViolin(rep.Set, "Logical violin - "+rep.DistName)},
				{"fig07_physical_violin", perNode, core.PhysicalViolin(rep.Set, "Physical violin - "+rep.DistName)},
				{fig(7, "physical_heatmap"), d, core.PhysicalHeatmap(rep.Set, "Physical trace - "+rep.DistName)},
				{fig(9, "papi_bar"), d, core.PAPIBar(rep.Set, papi.TOT_INS, "PAPI_TOT_INS - "+rep.DistName)},
				{fig(11, "overall"), d + "_absolute", core.OverallStacked(rep.Set, false, "Overall (absolute) - "+rep.DistName)},
				{fig(11, "overall"), d + "_relative", core.OverallStacked(rep.Set, true, "Overall (relative) - "+rep.DistName)},
			}
			// Per-mechanism physical heatmaps, as the paper separates them.
			for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend} {
				if m := rep.Set.PhysicalMatrixOf(kind); m.Total() > 0 {
					figs = append(figs, figure{fig(7, "physical_heatmap"), fmt.Sprintf("%s_%s", dist, kind),
						&viz.Heatmap{Title: fmt.Sprintf("%s - %s", kind, rep.DistName), Cells: m, Totals: true}})
				}
			}
			for _, f := range figs {
				if err := r.save(f.dir, f.name, f.plot); err != nil {
					return err
				}
			}
		}
		// The paper's combined panel: all four groups on a shared axis.
		cy := r.rep(nodes, core.DistCyclic).Set.LogicalMatrix()
		rg := r.rep(nodes, core.DistRange).Set.LogicalMatrix()
		combined := &viz.Violin{
			Title:  fmt.Sprintf("Logical sends/recvs per PE - %d node(s)", nodes),
			YLabel: "messages per PE",
			Groups: []viz.ViolinGroup{
				{Label: "cyclic sends", Values: toF(cy.SendTotals())},
				{Label: "cyclic recvs", Values: toF(cy.RecvTotals())},
				{Label: "range sends", Values: toF(rg.SendTotals())},
				{Label: "range recvs", Values: toF(rg.RecvTotals())},
			},
		}
		if err := r.save("fig05_logical_violin", fmt.Sprintf("combined_%dnode", nodes), combined); err != nil {
			return err
		}
	}
	return nil
}

// summarize adds the summary rows of Figures 3-13, in figure order.
func (r *runner) summarize() {
	for _, nodes := range []int{1, 2} {
		cyM, rgM := r.rep(nodes, core.DistCyclic).Set.LogicalMatrix(), r.rep(nodes, core.DistRange).Set.LogicalMatrix()
		r.add(fmt.Sprintf("Fig %d (%d node)", nodes+2, nodes),
			"Cyclic: PE0-heavy, irregular; Range: (L) shape; cyclic max sends ~6x, recvs ~2x range's",
			fmt.Sprintf("max sends cyclic/range %.1fx, max recvs %.1fx, cyclic send-imb %.1fx vs range %.1fx",
				ratio(slices.Max(cyM.SendTotals()), slices.Max(rgM.SendTotals())),
				ratio(slices.Max(cyM.RecvTotals()), slices.Max(rgM.RecvTotals())),
				trace.MaxOverMean(cyM.SendTotals()), trace.MaxOverMean(rgM.SendTotals())))
	}

	cy1 := r.rep(1, core.DistCyclic).Set.LogicalMatrix()
	cy2 := r.rep(2, core.DistCyclic).Set.LogicalMatrix()
	r.add("Fig 5",
		"1 node: cyclic max recv ~1.33x max send; 2 nodes: max send ~2-3x max recv",
		fmt.Sprintf("1n maxRecv/maxSend %.2f; 2n maxSend/maxRecv %.2f",
			ratio(slices.Max(cy1.RecvTotals()), slices.Max(cy1.SendTotals())),
			ratio(slices.Max(cy2.SendTotals()), slices.Max(cy2.RecvTotals()))))

	m := r.rep(1, core.DistRange).Set.LogicalMatrix()
	var upper int64
	n := len(m)
	for src := 0; src < n; src++ {
		for dst := src + 1; dst < n; dst++ {
			upper += m[src][dst]
		}
	}
	var agree, pairs float64
	recvs := m.RecvTotals()
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			pairs++
			if recvs[p] >= recvs[q] {
				agree++
			}
		}
	}
	r.add("Fig 6",
		"Range communication is lower-triangular; recvs decrease monotonically with PE id",
		fmt.Sprintf("upper-triangle sends = %d; recv monotonicity %.2f", upper, agree/pairs))

	cyP, rgP := r.rep(1, core.DistCyclic).Set.PhysicalMatrix(), r.rep(1, core.DistRange).Set.PhysicalMatrix()
	r.add("Fig 7",
		"Cyclic buffer sends ~2-4x worse than range; recvs ~5-15% worse",
		fmt.Sprintf("1n max buffer sends cyclic/range %.1fx; recvs %.2fx",
			ratio(slices.Max(cyP.SendTotals()), slices.Max(rgP.SendTotals())),
			ratio(slices.Max(cyP.RecvTotals()), slices.Max(rgP.RecvTotals()))))

	k1 := r.rep(1, core.DistCyclic).Set.PhysicalKindCounts()
	k2 := r.rep(2, core.DistCyclic).Set.PhysicalKindCounts()
	r.add("Fig 8/9",
		"1 node: 1D linear (local_send only); 2 nodes: 2D mesh (rows local_send, columns nonblock_send)",
		fmt.Sprintf("1n: local=%d nonblock=%d; 2n: local=%d nonblock=%d progress=%d",
			k1[conveyor.LocalSend], k1[conveyor.NonblockSend],
			k2[conveyor.LocalSend], k2[conveyor.NonblockSend], k2[conveyor.NonblockProgress]))

	for _, nodes := range []int{1, 2} {
		cy, rg := r.rep(nodes, core.DistCyclic).Set, r.rep(nodes, core.DistRange).Set
		r.add(fmt.Sprintf("Fig %d (%d node)", nodes+9, nodes),
			"PE0 TOT_INS imbalance up to ~4-5x under cyclic; flat under range",
			fmt.Sprintf("cyclic imb %.1fx, range imb %.1fx",
				trace.MaxOverMean(cy.PAPITotalsPerPE(papi.TOT_INS)),
				trace.MaxOverMean(rg.PAPITotalsPerPE(papi.TOT_INS))))
	}

	for _, nodes := range []int{1, 2} {
		cy, rg := r.rep(nodes, core.DistCyclic).Set, r.rep(nodes, core.DistRange).Set
		cm, cc, cp := shares(cy)
		rm, rc, rp := shares(rg)
		r.add(fmt.Sprintf("Fig %d (%d node)", nodes+11, nodes),
			"COMM dominant; MAIN <=5%; PROC cyclic <=5% vs range 20-24%; range ~2x faster",
			fmt.Sprintf("cyclic M/C/P %.0f/%.0f/%.0f%%, range %.0f/%.0f/%.0f%%, range %.1fx faster",
				100*cm, 100*cc, 100*cp, 100*rm, 100*rc, 100*rp,
				ratio(maxTotal(cy), maxTotal(rg))))
	}
}

func (r *runner) overhead() error {
	runWith := func(cfg trace.Config) (time.Duration, error) {
		start := time.Now()
		rep, err := core.RunTriangle(core.TriangleExperiment{
			Graph:  r.reports["1n_cyclic"].Graph,
			NumPEs: 16, PEsPerNode: 16,
			Dist: core.DistCyclic, Trace: cfg,
		})
		if err == nil && !rep.Validated() {
			err = errors.New("validation failed")
		}
		if err != nil {
			return 0, fmt.Errorf("overhead run: %w", err)
		}
		return time.Since(start), nil
	}
	// Tracing off: Overall only (Config zero value would re-enable all
	// defaults in RunTriangle, so pick the minimal real config).
	off, err := runWith(trace.Config{Overall: true})
	if err != nil {
		return err
	}
	full, err := runWith(core.FullTrace())
	if err != nil {
		return err
	}
	sampled := core.FullTrace()
	sampled.LogicalSample = 100
	sampled.PAPIRecordEvery = 256
	samp, err := runWith(sampled)
	if err != nil {
		return err
	}
	r.add("Sec IV-E",
		"Tracing overhead grows with message volume; trace size is the scaling concern",
		fmt.Sprintf("host wall-clock: minimal %v, full tracing %v (%.2fx), sampled %v (%.2fx)",
			off.Round(time.Millisecond), full.Round(time.Millisecond),
			float64(full)/float64(off), samp.Round(time.Millisecond),
			float64(samp)/float64(off)))
	return nil
}

// apiProfile demonstrates the paper's Section V-B proposal: a
// pshmem-style wrapper layer that *does* capture the non-blocking
// OpenSHMEM routines existing profilers miss, cross-validated against
// the physical trace.
func (r *runner) apiProfile() error {
	prof := shmem.NewAPIProfile()
	rep, err := core.RunTriangle(core.TriangleExperiment{
		Graph:  r.reports["2n_cyclic"].Graph,
		NumPEs: 32, PEsPerNode: 16,
		Dist: core.DistCyclic, Trace: trace.Config{Physical: true},
		APIProfile: prof,
	})
	if err != nil || !rep.Validated() {
		return fmt.Errorf("api-profile run failed: %v", err)
	}
	kinds := rep.Set.PhysicalKindCounts()
	nbi := prof.TotalCount(shmem.RoutinePutNBI)
	quiet := prof.TotalCount(shmem.RoutineQuiet)
	if err := os.WriteFile(filepath.Join(r.out, "shmem_api_profile.txt"),
		[]byte(prof.Report()), 0o644); err != nil {
		return err
	}
	r.add("Sec V-B",
		"Existing profilers cannot capture shmem_putmem_nbi/shmem_quiet; a pshmem-style profiling interface could",
		fmt.Sprintf("captured putmem_nbi=%d (= 2 x %d nonblock_sends), quiet=%d (= %d nonblock_progress)",
			nbi, kinds[conveyor.NonblockSend], quiet, kinds[conveyor.NonblockProgress]))
	return nil
}

func maxTotal(s *trace.Set) int64 {
	var m int64
	for _, r := range s.Overall {
		if r.TTotal > m {
			m = r.TTotal
		}
	}
	return m
}

func shares(s *trace.Set) (main, comm, proc float64) {
	var tm, tc, tp, tt int64
	for _, rec := range s.Overall {
		tm += rec.TMain
		tc += rec.TComm
		tp += rec.TProc
		tt += rec.TTotal
	}
	if tt == 0 {
		return
	}
	return float64(tm) / float64(tt), float64(tc) / float64(tt), float64(tp) / float64(tt)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func toF(vals []int64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(v)
	}
	return out
}
