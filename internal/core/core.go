// Package core is ActorProf's public facade: it configures and executes
// a profiled FA-BSP run end to end (machine model, trace collection,
// actor runtime per PE), assembles the trace set, and builds the
// standard visualizations - the programmatic equivalent of compiling an
// HClib-Actor application with ActorProf's -DENABLE_TRACE /
// -DENABLE_TCOMM_PROFILING / -DENABLE_TRACE_PHYSICAL macros and then
// running the visualizer with -l / -lp / -s / -p.
package core

import (
	"fmt"

	"actorprof/internal/actor"
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
	"actorprof/internal/whatif"
)

// Options configures a profiled run.
type Options struct {
	// Machine is the PE/node layout. Required.
	Machine sim.Machine
	// Cost overrides the data-movement cost model (default:
	// sim.DefaultCostModel()).
	Cost sim.CostModel
	// Trace selects which ActorProf features are enabled.
	Trace trace.Config
	// BufferItems is the conveyor aggregation buffer capacity (default:
	// the conveyor's own default).
	BufferItems int
	// Topology overrides the conveyor routing scheme (default auto:
	// 1D Linear / 2D Mesh / 3D Cube by node count).
	Topology conveyor.Topology
	// APIProfile, when non-nil, additionally counts every OpenSHMEM
	// routine invocation (the pshmem-style interface of paper Section
	// V-B), including the non-blocking routines conventional profilers
	// miss.
	APIProfile *shmem.APIProfile
}

// App is the SPMD application body, run once per PE with that PE's actor
// runtime. Returning an error aborts the run.
type App func(rt *actor.Runtime) error

// Run executes app on every PE under ActorProf instrumentation and
// returns the assembled trace set.
func Run(opts Options, app App) (*trace.Set, error) {
	set, _, err := run(opts, app, false)
	return set, err
}

// RunCaptured is Run plus what-if schedule capture: every clock charge
// and profiling region transition is recorded per PE, and the resulting
// schedule feeds internal/whatif (critical paths, bottleneck ranking,
// causal projections). whatif.WriteScheduleFile stores it next to a
// trace directory as schedule.json, where actorprofd and `actorprof
// whatif` find it.
func RunCaptured(opts Options, app App) (*trace.Set, *sim.Schedule, error) {
	return run(opts, app, true)
}

func run(opts Options, app App, capture bool) (*trace.Set, *sim.Schedule, error) {
	if err := opts.Machine.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.BufferItems < 0 {
		return nil, nil, fmt.Errorf("core: BufferItems %d: want a positive capacity, or 0 for the conveyor's default", opts.BufferItems)
	}
	// Default the cost model explicitly and reject degenerate ones
	// (zero-value or free-network models silently produce all-zero
	// profiles and poison what-if projections).
	cost := opts.Cost
	if cost == (sim.CostModel{}) {
		cost = sim.DefaultCostModel()
	}
	if err := cost.Validate(); err != nil {
		return nil, nil, err
	}
	coll, err := trace.NewCollector(opts.Trace, opts.Machine)
	if err != nil {
		return nil, nil, err
	}
	var rec *sim.ScheduleRecorder
	if capture {
		rec = sim.NewScheduleRecorder(opts.Machine, cost)
	}
	runErr := shmem.Run(shmem.Config{
		Machine:  opts.Machine,
		Cost:     cost,
		Profile:  opts.APIProfile,
		Schedule: rec,
	}, func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{
			Collector:   coll,
			BufferItems: opts.BufferItems,
			Topology:    opts.Topology,
		})
		if err := app(rt); err != nil {
			pe.Abort(fmt.Errorf("core: app failed on PE %d: %w", pe.Rank(), err))
		}
		rt.Close()
		pe.Barrier()
	})
	if runErr != nil {
		return nil, nil, runErr
	}
	var sched *sim.Schedule
	if rec != nil {
		sched = rec.Schedule()
	}
	return coll.Set(), sched, nil
}

// WhatIf projects a perturbation over a captured schedule and returns
// the differentially validated report (see whatif.Compare).
func WhatIf(sched *sim.Schedule, p whatif.Perturbation) (*whatif.Report, error) {
	return whatif.Compare(sched, p)
}

// WhatIfPlot builds the what-if comparison plot: baseline vs projected
// aggregate regimes plus the makespan, with deltas.
func WhatIfPlot(rep *whatif.Report, title string) *viz.WhatIf {
	bs, ps := rep.Baseline.Totals.Sum(), rep.Projected.Totals.Sum()
	return &viz.WhatIf{
		Title:    title,
		Subtitle: fmt.Sprintf("projected makespan delta %+d cycles (%+.1f%%)", rep.Delta.Makespan, rep.Delta.MakespanPct),
		Rows: []viz.WhatIfRow{
			{Label: "T_MAIN", Baseline: bs.TMain, Projected: ps.TMain},
			{Label: "T_COMM", Baseline: bs.TComm, Projected: ps.TComm},
			{Label: "T_PROC", Baseline: bs.TProc, Projected: ps.TProc},
			{Label: "T_TOTAL", Baseline: bs.TTotal, Projected: ps.TTotal},
			{Label: "makespan", Baseline: rep.Baseline.Totals.Makespan, Projected: rep.Projected.Totals.Makespan},
		},
	}
}

// BottleneckPlot builds the ranked per-actor bottleneck plot from an
// analysis, keeping the top entries.
func BottleneckPlot(an *whatif.Analysis, top int, title string) *viz.Ranked {
	rows := an.Bottlenecks
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	out := &viz.Ranked{Title: title, XLabel: "avg handler cycles / avg activation interval"}
	for _, b := range rows {
		out.Rows = append(out.Rows, viz.RankedRow{
			Label: b.Label,
			Score: b.Score,
			Detail: fmt.Sprintf("%d msgs in %d activations, avg %d cyc/msg",
				b.Messages, b.Activations, int64(b.AvgCycles)),
		})
	}
	return out
}

// The plot constructors below accept any trace.Source - a fully
// materialized *trace.Set or the O(PEs^2) *trace.Summary produced by
// trace.ReadSummary / (*trace.Set).Summary() - since every standard
// plot consumes only matrices, per-PE totals, and the overall
// breakdown, never individual records.

// LogicalHeatmap builds the Figure 3/4 plot (-l): pre-aggregation send
// counts between every PE pair, with send/recv totals.
func LogicalHeatmap(set trace.Source, title string) *viz.Heatmap {
	return &viz.Heatmap{
		Title:  title,
		Cells:  set.LogicalMatrix(),
		Totals: true,
	}
}

// PhysicalHeatmap builds the Figure 8/9 plot (-p): post-aggregation
// buffer counts between every PE pair.
func PhysicalHeatmap(set trace.Source, title string) *viz.Heatmap {
	return &viz.Heatmap{
		Title:  title,
		Cells:  set.PhysicalMatrix(),
		Totals: true,
	}
}

// LogicalViolin builds the Figure 5 plot: quartile violins over per-PE
// total logical sends and recvs.
func LogicalViolin(set trace.Source, title string) *viz.Violin {
	m := set.LogicalMatrix()
	return &viz.Violin{
		Title:  title,
		YLabel: "messages per PE",
		Groups: []viz.ViolinGroup{
			{Label: "sends", Values: toFloats(m.SendTotals())},
			{Label: "recvs", Values: toFloats(m.RecvTotals())},
		},
	}
}

// PhysicalViolin builds the Figure 7 plot: quartile violins over per-PE
// total physical buffers sent and received.
func PhysicalViolin(set trace.Source, title string) *viz.Violin {
	m := set.PhysicalMatrix()
	return &viz.Violin{
		Title:  title,
		YLabel: "buffers per PE",
		Groups: []viz.ViolinGroup{
			{Label: "sends", Values: toFloats(m.SendTotals())},
			{Label: "recvs", Values: toFloats(m.RecvTotals())},
		},
	}
}

// PAPIBar builds the Figure 10/11 plot (-lp): one bar per PE with the
// event's total across the PE's PAPI records.
func PAPIBar(set trace.Source, ev papi.Event, title string) *viz.Bar {
	vals := set.PAPITotalsPerPE(ev)
	labels := make([]string, len(vals))
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", i)
	}
	return &viz.Bar{
		Title:  title,
		YLabel: ev.String(),
		Labels: labels,
		Values: vals,
	}
}

// PAPIGroupedBar builds the full -lp plot: every configured PAPI
// counter (up to four, PAPI's limit) per PE in one grouped bar graph.
func PAPIGroupedBar(set trace.Source, title string) *viz.GroupedBar {
	npes, _ := set.Shape()
	labels := make([]string, npes)
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", i)
	}
	events := set.TraceConfig().PAPIEvents
	series := make([]viz.Series, 0, len(events))
	for _, ev := range events {
		series = append(series, viz.Series{
			Name:   ev.String(),
			Values: set.PAPITotalsPerPE(ev),
		})
	}
	return &viz.GroupedBar{
		Title:   title,
		YLabel:  "share of per-series max",
		Labels:  labels,
		Series:  series,
		LogHint: true,
	}
}

// NodeHeatmap builds the node-level hotspot heatmap: the physical
// matrix aggregated over nodes, exposing which node pairs carry the
// network load.
func NodeHeatmap(set trace.Source, title string) *viz.Heatmap {
	_, perNode := set.Shape()
	return &viz.Heatmap{
		Title:    title,
		Cells:    set.PhysicalMatrix().AggregateNodes(perNode),
		RowLabel: "src node",
		ColLabel: "dst node",
		Totals:   true,
	}
}

// OverallStacked builds the Figure 12/13 plot (-s): per-PE stacked
// MAIN/COMM/PROC cycles, absolute or relative.
func OverallStacked(set trace.Source, relative bool, title string) *viz.StackedBar {
	n, _ := set.Shape()
	main := make([]int64, n)
	comm := make([]int64, n)
	proc := make([]int64, n)
	for _, r := range set.OverallRecords() {
		if r.PE < 0 || r.PE >= n {
			continue
		}
		main[r.PE], comm[r.PE], proc[r.PE] = r.TMain, r.TComm, r.TProc
	}
	yl := "cycles"
	if relative {
		yl = "fraction of T_TOTAL"
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", i)
	}
	return &viz.StackedBar{
		Title:    title,
		YLabel:   yl,
		Labels:   labels,
		Relative: relative,
		Series: []viz.Series{
			{Name: "T_MAIN", Values: main},
			{Name: "T_COMM", Values: comm},
			{Name: "T_PROC", Values: proc},
		},
	}
}

// ActivityTimeline folds a windowed query's pyramid buckets into the
// "time-travel" activity plot: transfer volume over the trace clock at
// one level of detail. The result must carry buckets, i.e. come from a
// Window with LOD >= 1.
func ActivityTimeline(res *trace.WindowResult, title string) (*viz.Timeline, error) {
	if res.LOD < 1 || len(res.Buckets) == 0 {
		return nil, fmt.Errorf("core: timeline needs pyramid buckets (query with LOD >= 1 over a non-empty window)")
	}
	tl := &viz.Timeline{Title: title, XLabel: res.DomainName}
	for _, b := range res.Buckets {
		tl.Buckets = append(tl.Buckets, viz.TimelineBucket{
			T0: b.T0, T1: b.T1, Count: b.Count, Bytes: b.Bytes,
		})
	}
	return tl, nil
}

func toFloats(vals []int64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(v)
	}
	return out
}
