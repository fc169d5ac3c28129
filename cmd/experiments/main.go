// Command experiments regenerates every figure of the paper's
// evaluation (Section IV, Figures 3-13) plus the Section IV-E tracing
// overhead study, writing plots (SVG + text), trace files, and a
// paper-vs-measured summary.
//
// Usage:
//
//	experiments [-scale N | -sweep N,M,...] [-out DIR] [-cpuprofile FILE] [-memprofile FILE]
//
// The summary is one table of the paper's claims: a row per figure, the
// paper's observation, and what the run measured. -sweep writes the same
// table with one measured column per scale, to show how each claim's
// factor moves with the input, and writes no figures or traces.
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
//	  scale_sweep.md                the same rows, one column per -sweep scale
//	  fig03_.../  fig04_.../ ...    per-figure SVG + txt renderings
//	  shmem_api_profile.txt         the Section V-B OpenSHMEM call counts
//	  traces/<nodes>n_<dist>/       raw ActorProf trace files
package main

import (
	"bytes"
	"cmp"
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

type runner struct{ out string }

func main() {
	if err := runMain(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	defScale, envErr := core.EnvScale()
	scale := fs.Int("scale", defScale, "R-MAT scale (paper: 16)")
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
	if envErr != nil {
		return envErr
	}
	scales := []int{*scale}
	if *sweep != "" {
		scales = nil
		for _, tok := range strings.Split(*sweep, ",") {
			s, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad sweep scale %q: %w", tok, err)
			}
			scales = append(scales, s)
		}
	}
	if lo := slices.Min(scales); lo < 1 {
		return fmt.Errorf("scale %d: an R-MAT scale is at least 1", lo)
	}
	suMachine := sim.Machine{NumPEs: *suPEs, PEsPerNode: 16}
	suISort := apps.ISortConfig{KeysPerPE: *suKeys, BucketWidth: 1 << 16, Seed: 42}
	if err := cmp.Or(suMachine.Validate(), suISort.Validate(*suPEs)); *scaleup && err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	r := &runner{out: *out}
	if *scaleup {
		err = r.runScaleUp(suMachine, *suScale, suISort)
	} else {
		err = r.run(scales, *sweep != "")
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
func (r *runner) runScaleUp(m sim.Machine, scale int, icfg apps.ISortConfig) error {
	pes, perNode := m.NumPEs, m.PEsPerNode
	rows := []string{
		"| app | input | PEs | messages | validated | send imb (max/mean) | TOT_INS imb | host wall | ns/message | peak RSS so far | sleeps/PE mean (max) | yields/PE mean (max) |",
		"|---|---|---|---|---|---|---|---|---|---|---|---|",
	}
	// isort: the ISx weak-scaling input, batched dispatch.
	results := make([]apps.ISortResult, pes)
	row, err := scaleUpRow("isort", fmt.Sprintf("%d keys/PE", icfg.KeysPerPE), pes, perNode,
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

// study is what the driver keeps of the case study at one scale: each
// grid run's O(PEs^2) Summary, never its Set, the Section IV-E host
// timings, and the Section V-B API profile of the 2-node cyclic run.
type study struct {
	cells map[string]*trace.Summary // by key, "1n_cyclic"
	wall  [3]time.Duration          // minimal, full and sampled tracing
	prof  *shmem.APIProfile
}

// dists are the two distributions the case study compares, in table order.
var dists = []core.DistKind{core.DistCyclic, core.DistRange}

func key(nodes int, dist core.DistKind) string { return fmt.Sprintf("%dn_%s", nodes, dist) }

func (s *study) cell(nodes int, dist core.DistKind) *trace.Summary { return s.cells[key(nodes, dist)] }

// run measures the case study at each scale and writes the claims
// table: to summary.md for a -scale run, which also writes every figure
// and trace, or to scale_sweep.md, one measured column per scale, for a
// sweep. It prints the table and then the process's peak RSS.
func (r *runner) run(scales []int, sweep bool) error {
	name, title, cols := "summary.md", fmt.Sprintf("Reproduction summary (scale %d)", scales[0]), []string{"Measured"}
	if sweep {
		name, title, cols = "scale_sweep.md", "Scale-sensitivity sweep (16 PEs per node)", nil
	}
	var studies []*study
	for _, scale := range scales {
		s, err := r.measure(scale, !sweep)
		if err != nil {
			return err
		}
		studies = append(studies, s)
		if sweep {
			cols = append(cols, fmt.Sprintf("scale %d", scale))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n| Figure | Paper observation | %s |\n|---|---|%s\n",
		title, strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
	for _, c := range claims {
		fmt.Fprintf(&b, "| %s | %s |", c.fig, c.paper)
		for _, s := range studies {
			fmt.Fprintf(&b, " %s |", c.measure(s))
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(r.out, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%s written to %s\n\n%speak RSS %.0f MB\n", name, path, b.String(), peakRSSMB())
	return nil
}

// measure runs the case study at scale: 1 and 2 nodes of 16 PEs under
// each distribution, all features on and sharing one R-MAT graph, then
// the Section IV-E overhead runs. With write set, each grid run's traces
// and figures are written while its Set is alive, and the combined
// violins and the API profile once the grid is done.
func (r *runner) measure(scale int, write bool) (*study, error) {
	s := &study{cells: map[string]*trace.Summary{}, prof: shmem.NewAPIProfile()}
	var g *graph.Graph
	for _, nodes := range []int{1, 2} {
		for _, dist := range dists {
			start := time.Now()
			exp := core.TriangleExperiment{
				Scale: scale, EdgeFactor: 16, Seed: 42,
				NumPEs: nodes * 16, PEsPerNode: 16, Dist: dist, Graph: g,
			}
			if nodes == 2 && dist == core.DistCyclic {
				exp.APIProfile = s.prof
			}
			rep, err := core.RunTriangle(exp)
			if err != nil {
				return nil, fmt.Errorf("scale %d, %s: %w", scale, key(nodes, dist), err)
			}
			if g == nil {
				g = rep.Graph
				fmt.Printf("scale %d graph: %d vertices, %d edges, %d wedges, %d triangles\n",
					scale, g.NumVertices(), g.NumEdges(), g.Wedges(), rep.Expected)
			}
			s.cells[key(nodes, dist)] = rep.Set.Summary()
			if write {
				if err := r.write(nodes, dist, rep); err != nil {
					return nil, err
				}
			}
			fmt.Printf("  %-10s: ok in %v\n", key(nodes, dist), time.Since(start).Round(time.Millisecond))
		}
	}
	sampled := core.FullTrace()
	sampled.LogicalSample, sampled.PAPIRecordEvery = 100, 256
	// Tracing off is Overall only: a zero Config enables every feature.
	for i, cfg := range []trace.Config{{Overall: true}, core.FullTrace(), sampled} {
		start := time.Now()
		if _, err := core.RunTriangle(core.TriangleExperiment{
			Graph: g, NumPEs: 16, PEsPerNode: 16, Dist: core.DistCyclic, Trace: cfg,
		}); err != nil {
			return nil, fmt.Errorf("scale %d, overhead run: %w", scale, err)
		}
		s.wall[i] = time.Since(start)
	}
	if !write {
		return s, nil
	}
	// The paper's combined panel: all four groups on a shared axis.
	for _, nodes := range []int{1, 2} {
		combined := &viz.Violin{Title: fmt.Sprintf("Logical sends/recvs per PE - %d node(s)", nodes), YLabel: "messages per PE"}
		for _, dist := range dists {
			for _, grp := range core.LogicalViolin(s.cell(nodes, dist), "").Groups {
				grp.Label = fmt.Sprintf("%s %s", dist, grp.Label)
				combined.Groups = append(combined.Groups, grp)
			}
		}
		if err := r.save("fig05_logical_violin", fmt.Sprintf("combined_%dnode", nodes), combined); err != nil {
			return nil, err
		}
	}
	return s, os.WriteFile(filepath.Join(r.out, "shmem_api_profile.txt"), []byte(s.prof.Report()), 0o644)
}

// write saves one grid run's traces under traces/<key> and its panels
// of Figures 3-13.
func (r *runner) write(nodes int, dist core.DistKind, rep *core.TriangleReport) error {
	set, d, perNode := rep.Set, string(dist), fmt.Sprintf("%s_%dnode", dist, nodes)
	// fig names the directory of figure n+nodes: the one- and two-node
	// panels are consecutive figures.
	fig := func(n int, what string) string { return fmt.Sprintf("fig%02d_%s_%dnode", n+nodes, what, nodes) }
	err := errors.Join(
		set.WriteFiles(filepath.Join(r.out, "traces", key(nodes, dist))),
		r.save(fig(2, "logical_heatmap"), d, core.LogicalHeatmap(set, "Logical trace - "+rep.DistName)),
		r.save("fig05_logical_violin", perNode, core.LogicalViolin(set, "Logical violin - "+rep.DistName)),
		r.save("fig07_physical_violin", perNode, core.PhysicalViolin(set, "Physical violin - "+rep.DistName)),
		r.save(fig(7, "physical_heatmap"), d, core.PhysicalHeatmap(set, "Physical trace - "+rep.DistName)),
		r.save(fig(9, "papi_bar"), d, core.PAPIBar(set, papi.TOT_INS, "PAPI_TOT_INS - "+rep.DistName)),
		r.save(fig(11, "overall"), d+"_absolute", core.OverallStacked(set, false, "Overall (absolute) - "+rep.DistName)),
		r.save(fig(11, "overall"), d+"_relative", core.OverallStacked(set, true, "Overall (relative) - "+rep.DistName)),
	)
	// Per-mechanism physical heatmaps, as the paper separates them.
	for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend} {
		if m := set.PhysicalMatrixOf(kind); m.Total() > 0 {
			err = errors.Join(err, r.save(fig(7, "physical_heatmap"), fmt.Sprintf("%s_%s", dist, kind),
				&viz.Heatmap{Title: fmt.Sprintf("%s - %s", kind, rep.DistName), Cells: m, Totals: true}))
		}
	}
	return err
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

// claim is one row of the claims table: a figure, the paper's
// observation of it, and its measurement in one study.
type claim struct {
	fig, paper string
	measure    func(*study) string
}

// perNode is a claim the paper makes of both node counts: one row per
// count, the 1-node one labelled figure first.
func perNode(first int, paper string, measure func(s *study, nodes int) string) []claim {
	var rows []claim
	for _, nodes := range []int{1, 2} {
		rows = append(rows, claim{fmt.Sprintf("Fig %d (%d node)", first+nodes-1, nodes), paper,
			func(s *study) string { return measure(s, nodes) }})
	}
	return rows
}

// claims are the rows of summary.md and scale_sweep.md, in figure order.
var claims = slices.Concat(
	perNode(3, "Cyclic: PE0-heavy, irregular; Range: (L) shape; cyclic max sends ~6x, recvs ~2x range's",
		func(s *study, nodes int) string {
			cy, rg := s.cell(nodes, core.DistCyclic).LogicalMatrix(), s.cell(nodes, core.DistRange).LogicalMatrix()
			return fmt.Sprintf("max sends cyclic/range %.1fx, max recvs %.1fx, cyclic send-imb %.1fx vs range %.1fx",
				core.MaxRatio(cy.SendTotals(), rg.SendTotals()), core.MaxRatio(cy.RecvTotals(), rg.RecvTotals()),
				trace.MaxOverMean(cy.SendTotals()), trace.MaxOverMean(rg.SendTotals()))
		}),
	[]claim{
		{"Fig 5", "1 node: cyclic max recv ~1.33x max send; 2 nodes: max send ~2-3x max recv",
			func(s *study) string {
				cy1, cy2 := s.cell(1, core.DistCyclic).LogicalMatrix(), s.cell(2, core.DistCyclic).LogicalMatrix()
				return fmt.Sprintf("1n maxRecv/maxSend %.2f; 2n maxSend/maxRecv %.2f",
					core.MaxRatio(cy1.RecvTotals(), cy1.SendTotals()), core.MaxRatio(cy2.SendTotals(), cy2.RecvTotals()))
			}},
		{"Fig 6", "Range communication is lower-triangular; recvs decrease monotonically with PE id", lShape},
		{"Fig 7", "Cyclic buffer sends ~2-4x worse than range; recvs ~5-15% worse",
			func(s *study) string {
				cy, rg := s.cell(1, core.DistCyclic).PhysicalMatrix(), s.cell(1, core.DistRange).PhysicalMatrix()
				return fmt.Sprintf("1n max buffer sends cyclic/range %.1fx; recvs %.2fx",
					core.MaxRatio(cy.SendTotals(), rg.SendTotals()), core.MaxRatio(cy.RecvTotals(), rg.RecvTotals()))
			}},
		{"Fig 8/9", "1 node: 1D linear (local_send only); 2 nodes: 2D mesh (rows local_send, columns nonblock_send)",
			func(s *study) string {
				k1, k2 := s.cell(1, core.DistCyclic).PhysicalKindCounts(), s.cell(2, core.DistCyclic).PhysicalKindCounts()
				return fmt.Sprintf("1n: local=%d nonblock=%d; 2n: local=%d nonblock=%d progress=%d",
					k1[conveyor.LocalSend], k1[conveyor.NonblockSend],
					k2[conveyor.LocalSend], k2[conveyor.NonblockSend], k2[conveyor.NonblockProgress])
			}},
	},
	perNode(10, "PE0 TOT_INS imbalance up to ~4-5x under cyclic; flat under range",
		func(s *study, nodes int) string {
			return fmt.Sprintf("cyclic imb %.1fx, range imb %.1fx",
				trace.MaxOverMean(s.cell(nodes, core.DistCyclic).PAPITotalsPerPE(papi.TOT_INS)),
				trace.MaxOverMean(s.cell(nodes, core.DistRange).PAPITotalsPerPE(papi.TOT_INS)))
		}),
	perNode(12, "COMM dominant; MAIN <=5%; PROC cyclic <=5% vs range 20-24%; range ~2x faster",
		func(s *study, nodes int) string {
			cy, rg := s.cell(nodes, core.DistCyclic), s.cell(nodes, core.DistRange)
			cm, cc, cp := core.Shares(cy)
			rm, rc, rp := core.Shares(rg)
			return fmt.Sprintf("cyclic M/C/P %.0f/%.0f/%.0f%%, range %.0f/%.0f/%.0f%%, range %.1fx faster",
				100*cm, 100*cc, 100*cp, 100*rm, 100*rc, 100*rp, core.Speedup(cy, rg))
		}),
	[]claim{
		{"Sec IV-E", "Tracing overhead grows with message volume; trace size is the scaling concern",
			func(s *study) string {
				off, full, samp := s.wall[0], s.wall[1], s.wall[2]
				return fmt.Sprintf("host wall-clock: minimal %v, full tracing %v (%.2fx), sampled %v (%.2fx)",
					off.Round(time.Millisecond), full.Round(time.Millisecond), float64(full)/float64(off),
					samp.Round(time.Millisecond), float64(samp)/float64(off))
			}},
		{"Sec V-B", "Existing profilers cannot capture shmem_putmem_nbi/shmem_quiet; a pshmem-style profiling interface could",
			func(s *study) string {
				kinds := s.cell(2, core.DistCyclic).PhysicalKindCounts()
				return fmt.Sprintf("captured putmem_nbi=%d (= 2 x %d nonblock_sends), quiet=%d (= %d nonblock_progress)",
					s.prof.TotalCount(shmem.RoutinePutNBI), kinds[conveyor.NonblockSend],
					s.prof.TotalCount(shmem.RoutineQuiet), kinds[conveyor.NonblockProgress])
			}},
	},
)

// lShape measures Figure 6 on the 1-node range run: the sends above the
// diagonal, and the fraction of PE pairs p < q where p receives at least
// as much as q.
func lShape(s *study) string {
	m := s.cell(1, core.DistRange).LogicalMatrix()
	recvs := m.RecvTotals()
	var upper int64
	var agree, pairs float64
	for p := range m {
		for q := p + 1; q < len(m); q++ {
			upper += m[p][q]
			pairs++
			if recvs[p] >= recvs[q] {
				agree++
			}
		}
	}
	return fmt.Sprintf("upper-triangle sends = %d; recv monotonicity %.2f", upper, agree/pairs)
}
