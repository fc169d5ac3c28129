// Command experiments regenerates every figure of the paper's
// evaluation (Section IV, Figures 3-13) plus the Section IV-E tracing
// overhead study, writing plots (SVG + text), trace files, and a
// paper-vs-measured summary.
//
// Usage:
//
//	experiments [-scale N] [-out DIR]
//
// The output directory (default "results") is laid out as:
//
//	results/
//	  summary.md                    paper-vs-measured, one row per figure
//	  fig03_.../  fig04_.../ ...    per-figure SVG + txt renderings
//	  traces/<nodes>n_<dist>/       raw ActorProf trace files
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := &runner{out: *out, scale: *scale, reports: map[string]*core.TriangleReport{}}
	if *scaleup {
		return r.runScaleUp(*suPEs, 16, *suScale, *suKeys)
	}
	if *sweep != "" {
		return r.runSweep(*sweep)
	}
	return r.run()
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
		var cy, rg *core.TriangleReport
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			exp := core.TriangleExperiment{
				Scale: scale, EdgeFactor: 16, Seed: 42,
				NumPEs: 16, PEsPerNode: 16, Dist: dist,
			}
			if cy != nil {
				exp.Graph = cy.Graph
			}
			rep, err := core.RunTriangle(exp)
			if err != nil {
				return err
			}
			if !rep.Validated() {
				return fmt.Errorf("scale %d %s: validation failed", scale, dist)
			}
			if dist == core.DistCyclic {
				cy = rep
			} else {
				rg = rep
			}
		}
		cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
		rows = append(rows, fmt.Sprintf("| %d | %d | %d | %.1fx | %.1fx | %.1fx |",
			scale, cy.Graph.NumVertices(), cyM.Total(),
			ratio(maxOf(cyM.SendTotals()), maxOf(rgM.SendTotals())),
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
	// How each PE waited for work (DESIGN.md §16): read on the PE's own
	// goroutine when its app returns.
	waits := make([]shmem.ProgressStats, pes)
	// hostCols renders a row's host cost: wall-clock, wall-clock per
	// logical message, the process's peak RSS when the row finished (a
	// high-water mark, so a later row's includes the earlier ones), and
	// the wait counters.
	hostCols := func(wall time.Duration, msgs int64) string {
		return fmt.Sprintf("%v | %.0f | %.0f MB | %s | %s", wall.Round(time.Millisecond),
			float64(wall.Nanoseconds())/float64(msgs), peakRSSMB(),
			meanMax(waits, func(w shmem.ProgressStats) int64 { return w.Sleeps }),
			meanMax(waits, func(w shmem.ProgressStats) int64 { return w.Yields }))
	}

	// isort: the ISx weak-scaling input, batched dispatch.
	{
		icfg := apps.ISortConfig{KeysPerPE: keysPerPE, BucketWidth: 1 << 16, Seed: 42}
		results := make([]apps.ISortResult, pes)
		start := time.Now()
		set, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: pes, PEsPerNode: perNode},
			Trace:   scaleUpTrace(),
		}, func(rt *actor.Runtime) error {
			res, err := apps.ISort(rt, icfg)
			if err != nil {
				return err
			}
			results[rt.PE().Rank()] = res
			waits[rt.PE().Rank()] = rt.PE().ProgressStats()
			return nil
		})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		want := apps.ISortSerial(pes, icfg)
		validated := true
		for pe := range results {
			if !int64SlicesEqual(results[pe].Keys, want[pe]) {
				validated = false
				break
			}
		}
		lm := set.LogicalMatrix()
		rows = append(rows, fmt.Sprintf("| isort | %d keys/PE | %d | %d | %v | %.1fx | %.1fx | %s |",
			keysPerPE, pes, lm.Total(), validated,
			trace.MaxOverMean(lm.SendTotals()),
			trace.MaxOverMean(set.PAPITotalsPerPE(papi.TOT_INS)), hostCols(wall, lm.Total())))
		fmt.Println(rows[len(rows)-1])
		if !validated {
			return fmt.Errorf("scaleup: isort validation failed at %d PEs", pes)
		}
	}

	// trianglecount: the case-study kernel on an R-MAT graph several
	// scales past the paper's, under the stressed (cyclic) distribution.
	{
		g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, 42))
		if err != nil {
			return err
		}
		dist, err := core.DistCyclic.Build(g, pes)
		if err != nil {
			return err
		}
		counts := make([]int64, pes)
		start := time.Now()
		set, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: pes, PEsPerNode: perNode},
			Trace:   scaleUpTrace(),
		}, func(rt *actor.Runtime) error {
			got, err := apps.TriangleCount(rt, g, dist)
			if err != nil {
				return err
			}
			counts[rt.PE().Rank()] = got
			waits[rt.PE().Rank()] = rt.PE().ProgressStats()
			return nil
		})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		expected := g.CountTrianglesSerial()
		validated := true
		for _, c := range counts {
			if c != expected {
				validated = false
				break
			}
		}
		lm := set.LogicalMatrix()
		rows = append(rows, fmt.Sprintf("| trianglecount | R-MAT scale %d (%d vertices, %d edges) | %d | %d | %v | %.1fx | %.1fx | %s |",
			scale, g.NumVertices(), g.NumEdges(), pes, lm.Total(), validated,
			trace.MaxOverMean(lm.SendTotals()),
			trace.MaxOverMean(set.PAPITotalsPerPE(papi.TOT_INS)), hostCols(wall, lm.Total())))
		fmt.Println(rows[len(rows)-1])
		if !validated {
			return fmt.Errorf("scaleup: trianglecount validation failed (want %d)", expected)
		}
	}

	content := fmt.Sprintf("# Scale-up scenario (%d PEs, streaming-aggregation path)\n\n%s\n",
		pes, strings.Join(rows, "\n"))
	path := filepath.Join(r.out, "scaleup.md")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("scale-up results written to %s\n", path)
	return nil
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

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *runner) run() error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	fmt.Printf("running the case-study grid at scale %d (paper: 16; set ACTORPROF_SCALE)\n", r.scale)

	// The 2x2 grid of the case study, all features on, sharing one graph.
	var shared *core.TriangleReport
	for _, nodes := range []int{1, 2} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			exp := core.TriangleExperiment{
				Scale: r.scale, EdgeFactor: 16, Seed: 42,
				NumPEs: nodes * 16, PEsPerNode: 16,
				Dist: dist,
			}
			if shared != nil {
				exp.Graph = shared.Graph
			}
			start := time.Now()
			rep, err := core.RunTriangle(exp)
			if err != nil {
				return err
			}
			if shared == nil {
				shared = rep
				fmt.Printf("graph: %d vertices, %d edges, %d wedges, %d triangles\n",
					rep.Graph.NumVertices(), rep.Graph.NumEdges(),
					rep.Graph.Wedges(), rep.Expected)
			}
			if !rep.Validated() {
				return fmt.Errorf("%dn %s: validation failed", nodes, dist)
			}
			key := fmt.Sprintf("%dn_%s", nodes, dist)
			r.reports[key] = rep
			dir := filepath.Join(r.out, "traces", key)
			if err := rep.Set.WriteFiles(dir); err != nil {
				return err
			}
			fmt.Printf("  %-10s: ok in %v (trace -> %s)\n", key, time.Since(start).Round(time.Millisecond), dir)
		}
	}

	steps := []func() error{
		r.fig34, r.fig5, r.fig6, r.fig7, r.fig89, r.fig1011, r.fig1213, r.overhead, r.apiProfile,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	summaryPath := filepath.Join(r.out, "summary.md")
	content := "# Reproduction summary (scale " + itoa(r.scale) + ")\n\n" +
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

// save renders a plot to both SVG and text under a figure directory.
func (r *runner) save(figDir, name string, textRender func(*os.File) error, svgRender func() (string, error)) error {
	dir := filepath.Join(r.out, figDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svg, err := svgRender()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".svg"), []byte(svg), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	if err := textRender(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *runner) saveHeatmap(figDir, name string, h *viz.Heatmap) error {
	return r.save(figDir, name, func(f *os.File) error { return h.RenderText(f) }, h.RenderSVG)
}

func (r *runner) saveViolin(figDir, name string, v *viz.Violin) error {
	return r.save(figDir, name, func(f *os.File) error { return v.RenderText(f) }, v.RenderSVG)
}

func (r *runner) fig34() error {
	for _, spec := range []struct {
		fig   string
		nodes int
	}{{"fig03_logical_heatmap_1node", 1}, {"fig04_logical_heatmap_2node", 2}} {
		cy := r.reports[fmt.Sprintf("%dn_cyclic", spec.nodes)]
		rg := r.reports[fmt.Sprintf("%dn_range", spec.nodes)]
		if err := r.saveHeatmap(spec.fig, "cyclic",
			core.LogicalHeatmap(cy.Set, "Logical trace - 1D Cyclic")); err != nil {
			return err
		}
		if err := r.saveHeatmap(spec.fig, "range",
			core.LogicalHeatmap(rg.Set, "Logical trace - 1D Range")); err != nil {
			return err
		}
		cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
		r.add(fmt.Sprintf("Fig %d (%d node)", spec.nodes+2, spec.nodes),
			"Cyclic: PE0-heavy, irregular; Range: (L) shape; cyclic max sends ~6x, recvs ~2x range's",
			fmt.Sprintf("max sends cyclic/range %.1fx, max recvs %.1fx, cyclic send-imb %.1fx vs range %.1fx",
				ratio(maxOf(cyM.SendTotals()), maxOf(rgM.SendTotals())),
				ratio(maxOf(cyM.RecvTotals()), maxOf(rgM.RecvTotals())),
				trace.MaxOverMean(cyM.SendTotals()), trace.MaxOverMean(rgM.SendTotals())))
	}
	return nil
}

func (r *runner) fig5() error {
	for _, nodes := range []int{1, 2} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep := r.reports[fmt.Sprintf("%dn_%s", nodes, dist)]
			name := fmt.Sprintf("%s_%dnode", dist, nodes)
			if err := r.saveViolin("fig05_logical_violin", name,
				core.LogicalViolin(rep.Set, "Logical violin - "+rep.DistName)); err != nil {
				return err
			}
		}
		// The paper's combined panel: all four groups on a shared axis.
		cy := r.reports[fmt.Sprintf("%dn_cyclic", nodes)].Set.LogicalMatrix()
		rg := r.reports[fmt.Sprintf("%dn_range", nodes)].Set.LogicalMatrix()
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
		if err := r.saveViolin("fig05_logical_violin",
			fmt.Sprintf("combined_%dnode", nodes), combined); err != nil {
			return err
		}
	}
	cy1 := r.reports["1n_cyclic"].Set.LogicalMatrix()
	cy2 := r.reports["2n_cyclic"].Set.LogicalMatrix()
	r.add("Fig 5",
		"1 node: cyclic max recv ~1.33x max send; 2 nodes: max send ~2-3x max recv",
		fmt.Sprintf("1n maxRecv/maxSend %.2f; 2n maxSend/maxRecv %.2f",
			ratio(maxOf(cy1.RecvTotals()), maxOf(cy1.SendTotals())),
			ratio(maxOf(cy2.SendTotals()), maxOf(cy2.RecvTotals()))))
	return nil
}

func (r *runner) fig6() error {
	m := r.reports["1n_range"].Set.LogicalMatrix()
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
	return nil
}

func (r *runner) fig7() error {
	for _, nodes := range []int{1, 2} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep := r.reports[fmt.Sprintf("%dn_%s", nodes, dist)]
			name := fmt.Sprintf("%s_%dnode", dist, nodes)
			if err := r.saveViolin("fig07_physical_violin", name,
				core.PhysicalViolin(rep.Set, "Physical violin - "+rep.DistName)); err != nil {
				return err
			}
		}
	}
	cy := r.reports["1n_cyclic"].Set.PhysicalMatrix()
	rg := r.reports["1n_range"].Set.PhysicalMatrix()
	r.add("Fig 7",
		"Cyclic buffer sends ~2-4x worse than range; recvs ~5-15% worse",
		fmt.Sprintf("1n max buffer sends cyclic/range %.1fx; recvs %.2fx",
			ratio(maxOf(cy.SendTotals()), maxOf(rg.SendTotals())),
			ratio(maxOf(cy.RecvTotals()), maxOf(rg.RecvTotals()))))
	return nil
}

func (r *runner) fig89() error {
	for _, spec := range []struct {
		fig   string
		nodes int
	}{{"fig08_physical_heatmap_1node", 1}, {"fig09_physical_heatmap_2node", 2}} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep := r.reports[fmt.Sprintf("%dn_%s", spec.nodes, dist)]
			if err := r.saveHeatmap(spec.fig, string(dist),
				core.PhysicalHeatmap(rep.Set, "Physical trace - "+rep.DistName)); err != nil {
				return err
			}
			// Per-mechanism heatmaps, as the paper separates them.
			for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend} {
				m := rep.Set.PhysicalMatrixOf(kind)
				if m.Total() == 0 {
					continue
				}
				hm := &viz.Heatmap{
					Title:  fmt.Sprintf("%s - %s", kind, rep.DistName),
					Cells:  m,
					Totals: true,
				}
				if err := r.saveHeatmap(spec.fig, fmt.Sprintf("%s_%s", dist, kind), hm); err != nil {
					return err
				}
			}
		}
	}
	k1 := r.reports["1n_cyclic"].Set.PhysicalKindCounts()
	k2 := r.reports["2n_cyclic"].Set.PhysicalKindCounts()
	r.add("Fig 8/9",
		"1 node: 1D linear (local_send only); 2 nodes: 2D mesh (rows local_send, columns nonblock_send)",
		fmt.Sprintf("1n: local=%d nonblock=%d; 2n: local=%d nonblock=%d progress=%d",
			k1[conveyor.LocalSend], k1[conveyor.NonblockSend],
			k2[conveyor.LocalSend], k2[conveyor.NonblockSend], k2[conveyor.NonblockProgress]))
	return nil
}

func (r *runner) fig1011() error {
	for _, spec := range []struct {
		fig   string
		nodes int
	}{{"fig10_papi_bar_1node", 1}, {"fig11_papi_bar_2node", 2}} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep := r.reports[fmt.Sprintf("%dn_%s", spec.nodes, dist)]
			bar := core.PAPIBar(rep.Set, papi.TOT_INS, "PAPI_TOT_INS - "+rep.DistName)
			if err := r.save(spec.fig, string(dist),
				func(f *os.File) error { return bar.RenderText(f) }, bar.RenderSVG); err != nil {
				return err
			}
		}
		cy := r.reports[fmt.Sprintf("%dn_cyclic", spec.nodes)]
		rg := r.reports[fmt.Sprintf("%dn_range", spec.nodes)]
		r.add(fmt.Sprintf("Fig %d (%d node)", spec.nodes+9, spec.nodes),
			"PE0 TOT_INS imbalance up to ~4-5x under cyclic; flat under range",
			fmt.Sprintf("cyclic imb %.1fx, range imb %.1fx",
				trace.MaxOverMean(cy.Set.PAPITotalsPerPE(papi.TOT_INS)),
				trace.MaxOverMean(rg.Set.PAPITotalsPerPE(papi.TOT_INS))))
	}
	return nil
}

func (r *runner) fig1213() error {
	for _, spec := range []struct {
		fig   string
		nodes int
	}{{"fig12_overall_1node", 1}, {"fig13_overall_2node", 2}} {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep := r.reports[fmt.Sprintf("%dn_%s", spec.nodes, dist)]
			for _, mode := range []struct {
				rel  bool
				name string
			}{{false, "absolute"}, {true, "relative"}} {
				sb := core.OverallStacked(rep.Set, mode.rel,
					fmt.Sprintf("Overall (%s) - %s", mode.name, rep.DistName))
				if err := r.save(spec.fig, fmt.Sprintf("%s_%s", dist, mode.name),
					func(f *os.File) error { return sb.RenderText(f) }, sb.RenderSVG); err != nil {
					return err
				}
			}
		}
		cy := r.reports[fmt.Sprintf("%dn_cyclic", spec.nodes)]
		rg := r.reports[fmt.Sprintf("%dn_range", spec.nodes)]
		cm, cc, cp := shares(cy.Set)
		rm, rc, rp := shares(rg.Set)
		r.add(fmt.Sprintf("Fig %d (%d node)", spec.nodes+11, spec.nodes),
			"COMM dominant; MAIN <=5%; PROC cyclic <=5% vs range 20-24%; range ~2x faster",
			fmt.Sprintf("cyclic M/C/P %.0f/%.0f/%.0f%%, range %.0f/%.0f/%.0f%%, range %.1fx faster",
				100*cm, 100*cc, 100*cp, 100*rm, 100*rc, 100*rp,
				ratio(maxTotal(cy.Set), maxTotal(rg.Set))))
	}
	return nil
}

func (r *runner) overhead() error {
	runWith := func(cfg trace.Config) time.Duration {
		start := time.Now()
		rep, err := core.RunTriangle(core.TriangleExperiment{
			Graph:  r.reports["1n_cyclic"].Graph,
			NumPEs: 16, PEsPerNode: 16,
			Dist: core.DistCyclic, Trace: cfg,
		})
		if err != nil || !rep.Validated() {
			log.Fatalf("overhead run failed: %v", err)
		}
		return time.Since(start)
	}
	// Tracing off: Overall only (Config zero value would re-enable all
	// defaults in RunTriangle, so pick the minimal real config).
	off := runWith(trace.Config{Overall: true})
	full := runWith(core.FullTrace())
	sampled := core.FullTrace()
	sampled.LogicalSample = 100
	sampled.PAPIRecordEvery = 256
	samp := runWith(sampled)
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

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
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

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func toF(vals []int64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(v)
	}
	return out
}
