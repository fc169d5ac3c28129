package actorprof

// The benchmark harness: one benchmark per figure of the paper's
// evaluation (Section IV). Each bench runs the corresponding experiment
// and reports the figure's headline statistics as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the paper's series. Absolute cycle counts come from the
// simulation's deterministic cost model - the shapes (who wins, by what
// factor, where the imbalance sits) are the reproduction target, not the
// Perlmutter wall-clock. EXPERIMENTS.md records paper-vs-measured for
// every figure; cmd/experiments regenerates the full plots.
//
// The default R-MAT scale is 12 (laptop-runnable); set ACTORPROF_SCALE=16
// to match the paper's input exactly.

import (
	"sync"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/core"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

const benchSeed = 42

var (
	benchGraphOnce sync.Once
	benchGraph     *graph.Graph
)

// sharedGraph builds the case-study input once (the paper's runs share
// one scale-16 R-MAT graph; ours shares one at the configured scale).
func sharedGraph(b *testing.B) *graph.Graph {
	b.Helper()
	scale := benchScale(b)
	benchGraphOnce.Do(func() {
		g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, benchSeed))
		if err != nil {
			panic(err)
		}
		benchGraph = g
	})
	return benchGraph
}

// benchScale is the case-study scale, ACTORPROF_SCALE's when it is set;
// a value that is set but invalid fails the benchmark.
func benchScale(b *testing.B) int {
	b.Helper()
	scale, err := core.EnvScale()
	if err != nil {
		b.Fatal(err)
	}
	return scale
}

// runCase executes one case-study cell and validates the count.
func runCase(b *testing.B, nodes int, dist core.DistKind, cfg trace.Config) *core.TriangleReport {
	b.Helper()
	rep, err := core.RunTriangle(core.TriangleExperiment{
		Graph:  sharedGraph(b),
		Seed:   benchSeed,
		NumPEs: nodes * 16, PEsPerNode: 16,
		Dist:  dist,
		Trace: cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Validated() {
		b.Fatalf("validation failed: %d vs %d", rep.Triangles, rep.Expected)
	}
	return rep
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
	for _, r := range s.Overall {
		tm += r.TMain
		tc += r.TComm
		tp += r.TProc
		tt += r.TTotal
	}
	if tt == 0 {
		return 0, 0, 0
	}
	return float64(tm) / float64(tt), float64(tc) / float64(tt), float64(tp) / float64(tt)
}

// benchLogicalHeatmap is the shared body of Figures 3 and 4: run both
// distributions, render the heatmaps, and report the send/recv extremes.
// The heatmap needs only the src x dst matrix, so the collector folds
// records as they arrive (Aggregate) instead of materializing them.
func benchLogicalHeatmap(b *testing.B, nodes int) {
	for i := 0; i < b.N; i++ {
		cy := runCase(b, nodes, core.DistCyclic, trace.Config{Logical: true, Aggregate: true})
		rg := runCase(b, nodes, core.DistRange, trace.Config{Logical: true, Aggregate: true})
		cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
		if _, err := core.LogicalHeatmap(cy.Set, "cyclic").RenderSVG(); err != nil {
			b.Fatal(err)
		}
		if _, err := core.LogicalHeatmap(rg.Set, "range").RenderSVG(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(maxOf(cyM.SendTotals()))/float64(maxOf(rgM.SendTotals())),
			"maxSend-cyclic/range")
		b.ReportMetric(float64(maxOf(cyM.RecvTotals()))/float64(maxOf(rgM.RecvTotals())),
			"maxRecv-cyclic/range")
		b.ReportMetric(trace.MaxOverMean(cyM.SendTotals()), "cyclicSendImb")
		b.ReportMetric(trace.MaxOverMean(rgM.SendTotals()), "rangeSendImb")
	}
}

// BenchmarkFig03LogicalHeatmap1Node reproduces Figure 3: logical-trace
// heatmaps on one node (16 PEs), 1D Cyclic vs 1D Range. Paper shape:
// cyclic concentrates traffic on PE0 and a few peers; cyclic's max sends
// are ~6x range's.
func BenchmarkFig03LogicalHeatmap1Node(b *testing.B) { benchLogicalHeatmap(b, 1) }

// BenchmarkFig04LogicalHeatmap2Node reproduces Figure 4: the same on two
// nodes (32 PEs).
func BenchmarkFig04LogicalHeatmap2Node(b *testing.B) { benchLogicalHeatmap(b, 2) }

// BenchmarkFig05LogicalViolin reproduces Figure 5: quartile violins of
// per-PE logical sends/recvs for both distributions on 1 and 2 nodes.
func BenchmarkFig05LogicalViolin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{1, 2} {
			cy := runCase(b, nodes, core.DistCyclic, trace.Config{Logical: true, Aggregate: true})
			rg := runCase(b, nodes, core.DistRange, trace.Config{Logical: true, Aggregate: true})
			if _, err := core.LogicalViolin(cy.Set, "cyclic").RenderSVG(); err != nil {
				b.Fatal(err)
			}
			if _, err := core.LogicalViolin(rg.Set, "range").RenderSVG(); err != nil {
				b.Fatal(err)
			}
			cyM, rgM := cy.Set.LogicalMatrix(), rg.Set.LogicalMatrix()
			if nodes == 1 {
				b.ReportMetric(float64(maxOf(cyM.RecvTotals()))/float64(maxOf(cyM.SendTotals())),
					"1n-cyclic-maxRecv/maxSend")
				b.ReportMetric(float64(maxOf(rgM.RecvTotals()))/float64(maxOf(rgM.SendTotals())),
					"1n-range-maxRecv/maxSend")
			} else {
				b.ReportMetric(float64(maxOf(cyM.SendTotals()))/float64(maxOf(cyM.RecvTotals())),
					"2n-cyclic-maxSend/maxRecv")
			}
		}
	}
}

// BenchmarkFig06LShapeObservation reproduces Figure 6's analytical "(L)
// observation": under 1D Range the communication matrix is lower
// triangular (PEs only send to lower-or-equal ranks) and the recv totals
// trend monotonically downward with PE id.
func BenchmarkFig06LShapeObservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rg := runCase(b, 1, core.DistRange, trace.Config{Logical: true})
		m := rg.Set.LogicalMatrix()
		n := len(m)
		var upper int64
		for src := 0; src < n; src++ {
			for dst := src + 1; dst < n; dst++ {
				upper += m[src][dst]
			}
		}
		b.ReportMetric(float64(upper), "upperTriangleSends")
		recvs := m.RecvTotals()
		// Kendall-style monotonicity: fraction of PE pairs (p < q) with
		// recv[p] >= recv[q]; 1.0 is perfectly decreasing.
		var agree, pairs float64
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				pairs++
				if recvs[p] >= recvs[q] {
					agree++
				}
			}
		}
		b.ReportMetric(agree/pairs, "recvMonotonicity")
		if upper != 0 {
			b.Fatalf("(L) observation violated: %d upper-triangle sends", upper)
		}
	}
}

// BenchmarkFig07PhysicalViolin reproduces Figure 7: quartile violins of
// per-PE physical buffer counts. Paper shape: cyclic's buffer sends are
// ~2-4x worse than range's; recvs ~5-15% worse.
func BenchmarkFig07PhysicalViolin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{1, 2} {
			cy := runCase(b, nodes, core.DistCyclic, trace.Config{Physical: true})
			rg := runCase(b, nodes, core.DistRange, trace.Config{Physical: true})
			if _, err := core.PhysicalViolin(cy.Set, "cyclic").RenderSVG(); err != nil {
				b.Fatal(err)
			}
			cyM, rgM := cy.Set.PhysicalMatrix(), rg.Set.PhysicalMatrix()
			if nodes == 1 {
				b.ReportMetric(float64(maxOf(cyM.SendTotals()))/float64(maxOf(rgM.SendTotals())),
					"1n-maxBufSend-cyclic/range")
				b.ReportMetric(float64(maxOf(cyM.RecvTotals()))/float64(maxOf(rgM.RecvTotals())),
					"1n-maxBufRecv-cyclic/range")
			} else {
				b.ReportMetric(float64(maxOf(cyM.SendTotals()))/float64(maxOf(rgM.SendTotals())),
					"2n-maxBufSend-cyclic/range")
			}
		}
	}
}

// benchPhysicalHeatmap is the shared body of Figures 8 and 9.
func benchPhysicalHeatmap(b *testing.B, nodes int) {
	m := sim.Machine{NumPEs: nodes * 16, PEsPerNode: 16}
	for i := 0; i < b.N; i++ {
		for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange} {
			rep := runCase(b, nodes, dist, trace.Config{Physical: true})
			if _, err := core.PhysicalHeatmap(rep.Set, string(dist)).RenderSVG(); err != nil {
				b.Fatal(err)
			}
			kinds := rep.Set.PhysicalKindCounts()
			if nodes == 1 {
				if kinds[conveyor.NonblockSend] != 0 {
					b.Fatal("1D linear topology must not use nonblock_send")
				}
			} else {
				if kinds[conveyor.NonblockSend] == 0 {
					b.Fatal("2D mesh must use nonblock_send")
				}
				// Topology check: transfers only along mesh rows/columns.
				for _, recs := range rep.Set.Physical {
					for _, r := range recs {
						if !m.SameNode(r.SrcPE, r.DstPE) && m.LocalRank(r.SrcPE) != m.LocalRank(r.DstPE) {
							b.Fatalf("off-mesh transfer %d->%d", r.SrcPE, r.DstPE)
						}
					}
				}
			}
			if dist == core.DistCyclic {
				b.ReportMetric(float64(kinds[conveyor.LocalSend]), "cyclic-localSends")
				b.ReportMetric(float64(kinds[conveyor.NonblockSend]), "cyclic-nonblockSends")
			}
		}
	}
}

// BenchmarkFig08PhysicalHeatmap1Node reproduces Figure 8: physical-trace
// heatmaps on one node - all transfers are local_send over the 1D linear
// topology.
func BenchmarkFig08PhysicalHeatmap1Node(b *testing.B) { benchPhysicalHeatmap(b, 1) }

// BenchmarkFig09PhysicalHeatmap2Node reproduces Figure 9: on two nodes
// the 2D mesh appears - local_send along rows, nonblock_send (plus
// nonblock_progress) along columns.
func BenchmarkFig09PhysicalHeatmap2Node(b *testing.B) { benchPhysicalHeatmap(b, 2) }

// benchPAPIBar is the shared body of Figures 10 and 11.
func benchPAPIBar(b *testing.B, nodes int) {
	cfg := trace.Config{PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS}, PAPIRecordEvery: 64}
	for i := 0; i < b.N; i++ {
		cy := runCase(b, nodes, core.DistCyclic, cfg)
		rg := runCase(b, nodes, core.DistRange, cfg)
		if _, err := core.PAPIBar(cy.Set, papi.TOT_INS, "cyclic").RenderSVG(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(trace.MaxOverMean(cy.Set.PAPITotalsPerPE(papi.TOT_INS)), "cyclicInsImb")
		b.ReportMetric(trace.MaxOverMean(rg.Set.PAPITotalsPerPE(papi.TOT_INS)), "rangeInsImb")
	}
}

// BenchmarkFig10PAPIBar1Node reproduces Figure 10: PAPI_TOT_INS per PE
// on one node. Paper shape: PE0's instructions are up to ~4-5x the
// others' under 1D Cyclic.
func BenchmarkFig10PAPIBar1Node(b *testing.B) { benchPAPIBar(b, 1) }

// BenchmarkFig11PAPIBar2Node reproduces Figure 11: the same on two nodes.
func BenchmarkFig11PAPIBar2Node(b *testing.B) { benchPAPIBar(b, 2) }

// benchOverall is the shared body of Figures 12 and 13.
func benchOverall(b *testing.B, nodes int) {
	cfg := trace.Config{Overall: true}
	for i := 0; i < b.N; i++ {
		cy := runCase(b, nodes, core.DistCyclic, cfg)
		rg := runCase(b, nodes, core.DistRange, cfg)
		for _, rel := range []bool{false, true} {
			if _, err := core.OverallStacked(cy.Set, rel, "cyclic").RenderSVG(); err != nil {
				b.Fatal(err)
			}
			if _, err := core.OverallStacked(rg.Set, rel, "range").RenderSVG(); err != nil {
				b.Fatal(err)
			}
		}
		cm, cc, cp := shares(cy.Set)
		rm, rc, rp := shares(rg.Set)
		b.ReportMetric(cm, "cyclicMainShare")
		b.ReportMetric(cc, "cyclicCommShare")
		b.ReportMetric(cp, "cyclicProcShare")
		b.ReportMetric(rm, "rangeMainShare")
		b.ReportMetric(rc, "rangeCommShare")
		b.ReportMetric(rp, "rangeProcShare")
		b.ReportMetric(float64(maxTotal(cy.Set))/float64(maxTotal(rg.Set)), "speedup-range/cyclic")
	}
}

// BenchmarkFig12Overall1Node reproduces Figure 12: the MAIN/COMM/PROC
// stacked bars on one node. Paper shape: COMM dominates; MAIN <= ~5%;
// range ~2x faster overall; PROC share larger under range.
func BenchmarkFig12Overall1Node(b *testing.B) { benchOverall(b, 1) }

// BenchmarkFig13Overall2Node reproduces Figure 13: the same on two nodes.
func BenchmarkFig13Overall2Node(b *testing.B) { benchOverall(b, 2) }

// BenchmarkTracingOverheadOff / ...Full quantify Section IV-E: the cost
// of ActorProf tracing. Compare ns/op between the two.
func BenchmarkTracingOverheadOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCase(b, 1, core.DistCyclic, trace.Config{})
	}
}

// BenchmarkTracingOverheadFull runs the identical experiment with every
// ActorProf feature enabled.
func BenchmarkTracingOverheadFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runCase(b, 1, core.DistCyclic, core.FullTrace())
	}
}

// BenchmarkTracingOverheadSampled runs full tracing with 1-in-100
// logical sampling and batched PAPI records: the trace-size management
// mode for huge runs (paper Section VI).
func BenchmarkTracingOverheadSampled(b *testing.B) {
	cfg := core.FullTrace()
	cfg.LogicalSample = 100
	cfg.PAPIRecordEvery = 256
	for i := 0; i < b.N; i++ {
		runCase(b, 1, core.DistCyclic, cfg)
	}
}

// BenchmarkAblationBufferSize sweeps the conveyor aggregation buffer -
// the central design parameter of message aggregation (DESIGN.md
// ablation): more items per buffer amortize transfer latency but delay
// delivery.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, items := range []int{8, 32, 64, 128, 512} {
		b.Run(benchName("items", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.RunTriangle(core.TriangleExperiment{
					Graph:  sharedGraph(b),
					NumPEs: 32, PEsPerNode: 16,
					Dist:        core.DistCyclic,
					BufferItems: items,
					Trace:       trace.Config{Overall: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Validated() {
					b.Fatal("validation failed")
				}
				b.ReportMetric(float64(maxTotal(rep.Set)), "simCycles")
			}
		})
	}
}

// BenchmarkAblationDistributions extends the paper's two distributions
// with 1D Block (the "try more distributions" direction).
func BenchmarkAblationDistributions(b *testing.B) {
	for _, dist := range []core.DistKind{core.DistCyclic, core.DistRange, core.DistBlock} {
		b.Run(string(dist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := runCase(b, 1, dist, trace.Config{Logical: true, Overall: true})
				b.ReportMetric(trace.MaxOverMean(rep.Set.LogicalMatrix().SendTotals()), "sendImb")
				b.ReportMetric(float64(maxTotal(rep.Set)), "simCycles")
			}
		})
	}
}

// BenchmarkWeakScaling grows the problem with the machine: one R-MAT
// scale step per node doubling. Note that in a power-law graph the
// message count (wedges) grows *superlinearly* in the edge count, so
// per-PE work still rises - the wedges/PE metric reports the actual
// per-PE load, and simCycles divided by it gives the per-message cost
// trend across machine sizes.
func BenchmarkWeakScaling(b *testing.B) {
	base := benchScale(b) - 1
	for i, nodes := range []int{1, 2, 4} {
		scale := base + i
		b.Run(benchName("nodes", nodes), func(b *testing.B) {
			g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, benchSeed))
			if err != nil {
				b.Fatal(err)
			}
			for it := 0; it < b.N; it++ {
				rep, err := core.RunTriangle(core.TriangleExperiment{
					Graph:  g,
					NumPEs: nodes * 16, PEsPerNode: 16,
					Dist:  core.DistRange,
					Trace: trace.Config{Overall: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Validated() {
					b.Fatal("validation failed")
				}
				b.ReportMetric(float64(maxTotal(rep.Set)), "simCycles")
				b.ReportMetric(float64(g.Wedges())/float64(nodes*16), "wedges/PE")
			}
		})
	}
}

// Application benchmarks: the wider FA-BSP workload suite beyond the
// case study, each validated inside its app implementation.

func BenchmarkAppBFS(b *testing.B) {
	g := sharedGraph(b)
	full := g.Symmetrize()
	const npes, perNode = 16, 8
	dist := graph.NewCyclicDist(npes)
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		}, func(rt *actor.Runtime) error {
			res, err := apps.BFS(rt, full, dist, 0)
			if err != nil {
				return err
			}
			if res.Visited == 0 {
				b.Error("BFS visited nothing")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppPageRank(b *testing.B) {
	g := sharedGraph(b)
	full := g.Symmetrize()
	const npes, perNode = 16, 8
	dist := graph.NewRangeDist(full, npes)
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		}, func(rt *actor.Runtime) error {
			_, err := apps.PageRank(rt, full, dist, apps.PageRankConfig{
				Damping: 0.85, Iterations: 3,
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppIndexGather(b *testing.B) {
	const npes, perNode, reqs = 16, 8, 4000
	b.ReportMetric(float64(npes*reqs*2), "msgs/op") // request + response
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		}, func(rt *actor.Runtime) error {
			_, err := apps.IndexGather(rt, apps.IndexGatherConfig{
				RequestsPerPE: reqs, TableSizePerPE: 1024, Seed: uint64(i),
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppJaccard(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.Graph500(benchScale(b)-2, 8, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	want := g.CountTrianglesSerial()
	const npes, perNode = 16, 8
	dist := graph.NewRangeDist(g, npes)
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		}, func(rt *actor.Runtime) error {
			res, err := apps.Jaccard(rt, g, dist)
			if err != nil {
				return err
			}
			if res.TriangleCheck != want {
				b.Error("jaccard cross-check failed")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppInfluence(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.Graph500(benchScale(b)-3, 8, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	full := g.Symmetrize()
	const npes, perNode = 8, 4
	dist := graph.NewCyclicDist(npes)
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		}, func(rt *actor.Runtime) error {
			res, err := apps.Influence(rt, full, dist, apps.InfluenceConfig{
				Seeds: 5, Walks: 32, EdgeProb256: 48, Seed: 7,
			})
			if err != nil {
				return err
			}
			if len(res.Seeds) == 0 {
				b.Error("no seeds selected")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramThroughput measures raw FA-BSP messaging throughput
// on the Listing 1-2 program (messages per op reported as msgs).
func BenchmarkHistogramThroughput(b *testing.B) {
	const updates = 20000
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Machine: sim.Machine{NumPEs: 16, PEsPerNode: 16},
		}, func(rt *actor.Runtime) error {
			_, err := apps.Histogram(rt, apps.HistogramConfig{
				UpdatesPerPE: updates, TableSizePerPE: 1024, Seed: uint64(i),
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(16*updates), "msgs/op")
}

// BenchmarkAblationTopology compares the three Conveyors routing
// topologies the paper names (Section III-C) on the same 4-node
// problem: 1D Linear (all-pairs channels), 2D Mesh (two hops), 3D Cube
// (three hops). simCycles shows the latency/aggregation trade:
// multi-hop routing uses fewer channels but re-handles items.
func BenchmarkAblationTopology(b *testing.B) {
	for _, tp := range []conveyor.Topology{
		conveyor.TopologyLinear, conveyor.TopologyMesh, conveyor.TopologyCube,
	} {
		b.Run(tp.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.RunTriangle(core.TriangleExperiment{
					Graph:  sharedGraph(b),
					NumPEs: 64, PEsPerNode: 16,
					Dist:     core.DistRange,
					Topology: tp,
					Trace:    trace.Config{Overall: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Validated() {
					b.Fatal("validation failed")
				}
				b.ReportMetric(float64(maxTotal(rep.Set)), "simCycles")
			}
		})
	}
}

// BenchmarkScalingPEs is a strong-scaling study over the FA-BSP stack:
// the same triangle-counting problem on 1, 2, and 4 simulated nodes
// (16/32/64 PEs; two-node is the paper's largest configuration, four
// nodes exercises the 3D cube topology). simCycles is the straggler's
// virtual completion time - the simulated time-to-solution.
func BenchmarkScalingPEs(b *testing.B) {
	for _, nodes := range []int{1, 2, 4} {
		b.Run(benchName("nodes", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.RunTriangle(core.TriangleExperiment{
					Graph:  sharedGraph(b),
					NumPEs: nodes * 16, PEsPerNode: 16,
					Dist:  core.DistRange,
					Trace: trace.Config{Overall: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Validated() {
					b.Fatal("validation failed")
				}
				b.ReportMetric(float64(maxTotal(rep.Set)), "simCycles")
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
