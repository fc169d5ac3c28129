package core

import (
	"errors"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

func TestRunValidatesMachine(t *testing.T) {
	_, err := Run(Options{Machine: sim.Machine{NumPEs: 3, PEsPerNode: 2}},
		func(rt *actor.Runtime) error { return nil })
	if err == nil {
		t.Fatal("expected machine validation error")
	}
}

// TestRunValidatesBufferItems: a negative buffer capacity is an error
// before any PE starts, not a conveyor panic on every PE; 0 is the
// conveyor's default.
func TestRunValidatesBufferItems(t *testing.T) {
	m := sim.Machine{NumPEs: 2, PEsPerNode: 2}
	started := false
	_, err := Run(Options{Machine: m, BufferItems: -1}, func(rt *actor.Runtime) error {
		started = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "BufferItems -1") || started {
		t.Fatalf("BufferItems -1: err %v, app started %v; want the BufferItems error and no PE", err, started)
	}
	if _, err := Run(Options{Machine: m}, func(rt *actor.Runtime) error { return nil }); err != nil {
		t.Fatalf("BufferItems 0: %v", err)
	}
}

func TestRunPropagatesAppErrors(t *testing.T) {
	_, err := Run(Options{Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2}},
		func(rt *actor.Runtime) error {
			if rt.PE().Rank() == 1 {
				return strings.NewReader("").UnreadByte() // any error
			}
			rt.PE().Barrier() // won't be reached by PE 1's error path
			return nil
		})
	if err == nil {
		t.Fatal("expected app error to propagate")
	}
}

// An app's error comes back from Run as itself, wrapped with the PE that
// returned it and without a goroutine dump, whether its peers are still
// inside a Finish or return it too.
func TestRunReturnsAppErrorWithoutStack(t *testing.T) {
	sentinel := errors.New("app gave up")
	for _, c := range []struct {
		name   string
		failOn func(rank int) bool
	}{
		{"one PE, peers in a Finish", func(rank int) bool { return rank == 1 }},
		{"every PE", func(int) bool { return true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(Options{Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2}},
				func(rt *actor.Runtime) error {
					if c.failOn(rt.PE().Rank()) {
						return sentinel
					}
					sel, err := actor.NewActor(rt, actor.Int64Codec())
					if err != nil {
						return err
					}
					sel.Process(0, func(int64, int) {})
					rt.Finish(func() {
						sel.Start()
						sel.Done(0)
					})
					return nil
				})
			if !errors.Is(err, sentinel) {
				t.Fatalf("Run returned %v, want an error wrapping %v", err, sentinel)
			}
			if msg := err.Error(); strings.Contains(msg, "goroutine") || !strings.Contains(msg, "on PE ") {
				t.Errorf("Run's error %q: want the failing PE named and no stack", msg)
			}
		})
	}
}

func TestRunHistogramEndToEnd(t *testing.T) {
	set, err := Run(Options{
		Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2},
		Trace:   FullTrace(),
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{
			UpdatesPerPE: 100, TableSizePerPE: 16, Seed: 3,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if set.LogicalMatrix().Total() != 400 {
		t.Fatalf("logical total = %d, want 400", set.LogicalMatrix().Total())
	}
	if len(set.Overall) != 4 {
		t.Fatalf("overall records = %d", len(set.Overall))
	}
}

// caseStudy runs one small case-study cell, shared across shape tests.
func caseStudy(t *testing.T, npes, perNode int, dist DistKind) *TriangleReport {
	t.Helper()
	rep, err := RunTriangle(TriangleExperiment{
		Scale: 11, EdgeFactor: 16, Seed: 12345,
		NumPEs: npes, PEsPerNode: perNode,
		Dist: dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Validated() {
		t.Fatalf("%s: count %d != expected %d", dist, rep.Triangles, rep.Expected)
	}
	return rep
}

// TestShapeFigure345 checks the logical-trace observations of Figures
// 3-5: cyclic shows heavier send imbalance than range, and range's
// communication matrix is lower-triangular (the "(L) observation").
func TestShapeFigure345(t *testing.T) {
	cy := caseStudy(t, 16, 16, DistCyclic)
	rg := caseStudy(t, 16, 16, DistRange)

	cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
	if cyM.Total() != rgM.Total() {
		t.Fatalf("distributions must send the same logical total: %d vs %d",
			cyM.Total(), rgM.Total())
	}

	cyMaxSend := maxOf(cyM.SendTotals())
	rgMaxSend := maxOf(rgM.SendTotals())
	if float64(cyMaxSend) < 1.5*float64(rgMaxSend) {
		t.Errorf("cyclic max sends (%d) should clearly exceed range's (%d)",
			cyMaxSend, rgMaxSend)
	}
	if trace.MaxOverMean(cyM.SendTotals()) <= trace.MaxOverMean(rgM.SendTotals()) {
		t.Error("cyclic send imbalance should exceed range's")
	}

	// (L) observation: under range, PE p only sends to PEs q <= p (an
	// actor sends toward the owner of row j, and j < i implies owner(j)
	// <= owner(i) for contiguous nnz-balanced ranges).
	for src := 0; src < 16; src++ {
		for dst := src + 1; dst < 16; dst++ {
			if rgM[src][dst] != 0 {
				t.Fatalf("(L) violated: range PE %d sent %d messages to higher PE %d",
					src, rgM[src][dst], dst)
			}
		}
	}

	// Monotone trend of recvs under range (paper: "monotonically
	// decreasing fashion"): compare the first and last quarter means.
	recvs := rgM.RecvTotals()
	q := len(recvs) / 4
	var head, tail float64
	for i := 0; i < q; i++ {
		head += float64(recvs[i])
		tail += float64(recvs[len(recvs)-1-i])
	}
	if head <= tail {
		t.Errorf("range recvs should trend downward with PE id: head=%v tail=%v", head, tail)
	}
}

// TestShapeFigure89 checks the physical-trace topology observations: one
// node uses only local_send (1D linear); two nodes also use
// nonblock_send/nonblock_progress and only along mesh rows and columns.
func TestShapeFigure89(t *testing.T) {
	one := caseStudy(t, 16, 16, DistCyclic)
	kinds := one.Set.PhysicalKindCounts()
	if kinds[conveyor.NonblockSend] != 0 {
		t.Errorf("single node must not use nonblock_send, got %d", kinds[conveyor.NonblockSend])
	}
	if kinds[conveyor.LocalSend] == 0 {
		t.Error("single node run recorded no local_send buffers")
	}

	two := caseStudy(t, 32, 16, DistCyclic)
	kinds2 := two.Set.PhysicalKindCounts()
	if kinds2[conveyor.NonblockSend] == 0 {
		t.Error("two-node run must use nonblock_send")
	}
	if kinds2[conveyor.NonblockProgress] != kinds2[conveyor.NonblockSend] {
		t.Errorf("every nonblock_send needs a nonblock_progress: %d vs %d",
			kinds2[conveyor.NonblockSend], kinds2[conveyor.NonblockProgress])
	}
	// Mesh constraint: physical transfers only along rows (same node) or
	// columns (same local rank).
	m := sim.Machine{NumPEs: 32, PEsPerNode: 16}
	for _, recs := range two.Set.Physical {
		for _, r := range recs {
			sameNode := m.SameNode(r.SrcPE, r.DstPE)
			sameCol := m.LocalRank(r.SrcPE) == m.LocalRank(r.DstPE)
			if !sameNode && !sameCol {
				t.Fatalf("off-mesh transfer %d -> %d", r.SrcPE, r.DstPE)
			}
			if r.Kind == conveyor.LocalSend && !sameNode {
				t.Fatalf("local_send across nodes: %d -> %d", r.SrcPE, r.DstPE)
			}
		}
	}
}

// TestShapeFigure1011 checks the PAPI observation: under cyclic the
// instruction totals are far more imbalanced than under range.
func TestShapeFigure1011(t *testing.T) {
	cy := caseStudy(t, 16, 16, DistCyclic)
	rg := caseStudy(t, 16, 16, DistRange)
	cyIns := cy.Set.PAPITotalsPerPE(papi.TOT_INS)
	rgIns := rg.Set.PAPITotalsPerPE(papi.TOT_INS)
	cyImb := trace.MaxOverMean(cyIns)
	rgImb := trace.MaxOverMean(rgIns)
	if cyImb < 2 {
		t.Errorf("cyclic TOT_INS imbalance %.2f, want the paper's multi-x imbalance", cyImb)
	}
	if cyImb <= rgImb {
		t.Errorf("cyclic imbalance (%.2f) should exceed range's (%.2f)", cyImb, rgImb)
	}
}

// TestShapeFigure1213 checks the overall breakdown: COMM dominates, MAIN
// stays small, range beats cyclic in total cycles by roughly 2x, and
// range's PROC share exceeds cyclic's.
func TestShapeFigure1213(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		cy := caseStudy(t, nodes*16, 16, DistCyclic)
		rg := caseStudy(t, nodes*16, 16, DistRange)

		cyTot, cyMain, cyProc := sumOverall(cy.Set)
		rgTot, rgMain, rgProc := sumOverall(rg.Set)

		if frac(cyMain, cyTot) > 0.10 {
			t.Errorf("nodes=%d cyclic MAIN share %.3f, want small (paper <= 0.05)",
				nodes, frac(cyMain, cyTot))
		}
		if frac(rgMain, rgTot) > 0.10 {
			t.Errorf("nodes=%d range MAIN share %.3f, want small", nodes, frac(rgMain, rgTot))
		}
		cyComm := 1 - frac(cyMain, cyTot) - frac(cyProc, cyTot)
		rgComm := 1 - frac(rgMain, rgTot) - frac(rgProc, rgTot)
		if cyComm < 0.5 || rgComm < 0.5 {
			t.Errorf("nodes=%d COMM must dominate: cyclic %.2f range %.2f", nodes, cyComm, rgComm)
		}
		if frac(rgProc, rgTot) <= frac(cyProc, cyTot) {
			t.Errorf("nodes=%d range PROC share (%.3f) should exceed cyclic's (%.3f)",
				nodes, frac(rgProc, rgTot), frac(cyProc, cyTot))
		}
		// Range is faster overall (~2x in the paper).
		cyWall := maxTotal(cy.Set)
		rgWall := maxTotal(rg.Set)
		if speedup := float64(cyWall) / float64(rgWall); speedup < 1.3 {
			t.Errorf("nodes=%d cyclic/range speedup %.2f, want clearly > 1", nodes, speedup)
		}
	}
}

// TestFourNodeCubeTopology runs the case study on 4 nodes (64 PEs),
// where the conveyor auto-selects the 3D Cube topology (paper Section
// III-C lists 1D Linear / 2D Mesh / 3D Cube), and validates the count
// plus the cube's row/column transfer constraint.
func TestFourNodeCubeTopology(t *testing.T) {
	rep, err := RunTriangle(TriangleExperiment{
		Scale: 10, EdgeFactor: 16, Seed: 12345,
		NumPEs: 64, PEsPerNode: 16,
		Dist: DistCyclic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Validated() {
		t.Fatalf("cube run invalid: %d vs %d", rep.Triangles, rep.Expected)
	}
	// Cube constraint: inter-node transfers stay rank-aligned and move
	// along one node-grid axis at a time (2x2 grid of nodes).
	m := sim.Machine{NumPEs: 64, PEsPerNode: 16}
	const gridCols = 2
	for _, recs := range rep.Set.Physical {
		for _, r := range recs {
			if m.SameNode(r.SrcPE, r.DstPE) {
				continue
			}
			if m.LocalRank(r.SrcPE) != m.LocalRank(r.DstPE) {
				t.Fatalf("inter-node transfer %d->%d not rank-aligned", r.SrcPE, r.DstPE)
			}
			sr, sc := m.NodeOf(r.SrcPE)/gridCols, m.NodeOf(r.SrcPE)%gridCols
			dr, dc := m.NodeOf(r.DstPE)/gridCols, m.NodeOf(r.DstPE)%gridCols
			if sr != dr && sc != dc {
				t.Fatalf("diagonal node-grid transfer %d->%d", r.SrcPE, r.DstPE)
			}
		}
	}
}

func TestDistKindBuild(t *testing.T) {
	rep := caseStudy(t, 16, 16, DistBlock)
	if rep.DistName != "1D Block" {
		t.Fatalf("DistName = %q", rep.DistName)
	}
	if _, err := DistKind("bogus").Build(rep.Graph, 4); err == nil {
		t.Fatal("expected error for unknown distribution")
	}
	for _, k := range []DistKind{DistCyclic, DistRange, DistBlock} {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
	if err := DistKind("bogus").Validate(); err == nil || !strings.Contains(err.Error(), `unknown distribution "bogus"`) {
		t.Errorf("bogus: Validate = %v, want the unknown-distribution error", err)
	}
}

// TestAPIProfileCrossValidatesPhysicalTrace runs a two-node workload
// with both the physical trace and the pshmem-style API profile enabled
// and cross-checks them: every conveyor nonblock_send issues exactly two
// shmem_putmem_nbi calls (buffer data + length word) and every
// nonblock_progress exactly one shmem_quiet. This ties ActorProf's
// physical trace to the profiling-interface approach the paper's
// Section V-B proposes.
func TestAPIProfileCrossValidatesPhysicalTrace(t *testing.T) {
	prof := shmem.NewAPIProfile()
	set, err := Run(Options{
		Machine:    sim.Machine{NumPEs: 8, PEsPerNode: 4},
		Trace:      trace.Config{Physical: true},
		APIProfile: prof,
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{
			UpdatesPerPE: 800, TableSizePerPE: 64, Seed: 5,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := set.PhysicalKindCounts()
	nbSends := kinds[conveyor.NonblockSend]
	progress := kinds[conveyor.NonblockProgress]
	if nbSends == 0 {
		t.Fatal("two-node histogram produced no nonblock sends")
	}
	if got := prof.TotalCount(shmem.RoutinePutNBI); got != 2*nbSends {
		t.Errorf("putmem_nbi calls = %d, want 2 x %d nonblock_sends", got, nbSends)
	}
	if got := prof.TotalCount(shmem.RoutineQuiet); got != progress {
		t.Errorf("quiet calls = %d, want %d (one per nonblock_progress)", got, progress)
	}
}

func TestReportBuilders(t *testing.T) {
	rep := caseStudy(t, 16, 16, DistCyclic)
	set := rep.Set

	hm := LogicalHeatmap(set, "fig3")
	if _, err := hm.RenderSVG(); err != nil {
		t.Fatalf("logical heatmap: %v", err)
	}
	pm := PhysicalHeatmap(set, "fig8")
	if _, err := pm.RenderSVG(); err != nil {
		t.Fatalf("physical heatmap: %v", err)
	}
	vl := LogicalViolin(set, "fig5")
	if _, err := vl.RenderSVG(); err != nil {
		t.Fatalf("logical violin: %v", err)
	}
	pv := PhysicalViolin(set, "fig7")
	if _, err := pv.RenderSVG(); err != nil {
		t.Fatalf("physical violin: %v", err)
	}
	bar := PAPIBar(set, papi.TOT_INS, "fig10")
	if _, err := bar.RenderSVG(); err != nil {
		t.Fatalf("papi bar: %v", err)
	}
	for _, rel := range []bool{false, true} {
		sb := OverallStacked(set, rel, "fig12")
		if _, err := sb.RenderSVG(); err != nil {
			t.Fatalf("overall stacked (rel=%v): %v", rel, err)
		}
	}
}

func TestTraceRoundTripThroughFiles(t *testing.T) {
	rep := caseStudy(t, 16, 16, DistRange)
	dir := t.TempDir()
	if err := rep.Set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.LogicalMatrix().Total() != rep.Set.LogicalMatrix().Total() {
		t.Fatal("logical totals changed across file round trip")
	}
	if back.PhysicalMatrix().Total() != rep.Set.PhysicalMatrix().Total() {
		t.Fatal("physical totals changed across file round trip")
	}
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

func sumOverall(s *trace.Set) (tot, main, proc int64) {
	for _, r := range s.Overall {
		tot += r.TTotal
		main += r.TMain
		proc += r.TProc
	}
	return
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

func frac(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// TestPlotsIdenticalAcrossFormats pins the binary-format acceptance
// criterion: the same trace written in the paper's text layout (and
// imported from it) and as binary columnar files must render
// byte-identical plots - whether loaded as a full Set or folded into a
// Summary by the streaming aggregation path.
func TestPlotsIdenticalAcrossFormats(t *testing.T) {
	rep := caseStudy(t, 16, 16, DistCyclic)
	csvDir, binDir := t.TempDir(), t.TempDir()
	rep.Set.Config.Format = trace.FormatCSV
	if err := rep.Set.WriteFiles(csvDir); err != nil {
		t.Fatal(err)
	}
	rep.Set.Config.Format = trace.FormatBinary
	if err := rep.Set.WriteFiles(binDir); err != nil {
		t.Fatal(err)
	}

	render := func(s trace.Source) map[string]string {
		out := map[string]string{}
		add := func(name, svg string, err error) {
			if err != nil {
				t.Fatalf("rendering %s: %v", name, err)
			}
			out[name] = svg
		}
		svg, err := LogicalHeatmap(s, "t").RenderSVG()
		add("logical-heatmap", svg, err)
		svg, err = PhysicalHeatmap(s, "t").RenderSVG()
		add("physical-heatmap", svg, err)
		svg, err = LogicalViolin(s, "t").RenderSVG()
		add("logical-violin", svg, err)
		svg, err = PhysicalViolin(s, "t").RenderSVG()
		add("physical-violin", svg, err)
		svg, err = PAPIBar(s, papi.TOT_INS, "t").RenderSVG()
		add("papi-bar", svg, err)
		svg, err = PAPIGroupedBar(s, "t").RenderSVG()
		add("papi-grouped", svg, err)
		svg, err = NodeHeatmap(s, "t").RenderSVG()
		add("node-heatmap", svg, err)
		svg, err = OverallStacked(s, true, "t").RenderSVG()
		add("overall-stacked", svg, err)
		return out
	}

	fromCSV, skipped, err := trace.ImportPaper(csvDir)
	if err != nil || skipped != 0 {
		t.Fatalf("ImportPaper: skipped=%d err=%v", skipped, err)
	}
	want := render(fromCSV)

	fromBin, err := trace.ReadSet(binDir)
	if err != nil {
		t.Fatal(err)
	}
	for name, svg := range render(fromBin) {
		if svg != want[name] {
			t.Errorf("%s differs between CSV and binary traces", name)
		}
	}
	for label, dir := range map[string]string{"csv": csvDir, "binary": binDir} {
		sum, skipped, err := trace.ReadSummary(dir, trace.ReadOptions{})
		if err != nil || skipped != 0 {
			t.Fatalf("%s summary: skipped=%d err=%v", label, skipped, err)
		}
		for name, svg := range render(sum) {
			if svg != want[name] {
				t.Errorf("%s differs between full Set and streamed %s Summary", name, label)
			}
		}
	}
}

func TestRunValidatesCostModel(t *testing.T) {
	bad := sim.DefaultCostModel()
	bad.NetworkLatency, bad.NetworkPerByte = 0, 0 // free network
	_, err := Run(Options{Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2}, Cost: bad},
		func(rt *actor.Runtime) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "free network") {
		t.Fatalf("expected free-network cost error, got %v", err)
	}
	neg := sim.DefaultCostModel()
	neg.QuietLatency = -1
	if _, _, err := RunCaptured(Options{Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2}, Cost: neg},
		func(rt *actor.Runtime) error { return nil }); err == nil {
		t.Fatal("expected negative-cost error from RunCaptured")
	}
}

// TestRunCapturedWritesSchedule: the captured schedule lands next to the
// written trace and round-trips through the whatif loader.
func TestRunCapturedWritesSchedule(t *testing.T) {
	dir := t.TempDir()
	set, sched, err := RunCaptured(Options{
		Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2},
		Trace:   trace.Config{Overall: true},
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{UpdatesPerPE: 50, TableSizePerPE: 16, Seed: 3})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(dir, sched); err != nil {
		t.Fatal(err)
	}
	if !whatif.HasSchedule(dir) {
		t.Fatal("trace directory has no schedule.json")
	}
	got, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events() != sched.Events() {
		t.Fatalf("on-disk schedule has %d events, in-memory %d", got.Events(), sched.Events())
	}
}
