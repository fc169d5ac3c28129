package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	"actorprof/internal/whatif"
)

var processStart = time.Now()

// nowNS is a monotonic clock reading in nanoseconds.
func nowNS() int64 { return time.Since(processStart).Nanoseconds() }

// aggregateTrace is the streaming-aggregation configuration of the
// scale-up scenario: matrices and totals are folded as records arrive.
func aggregateTrace() trace.Config {
	return trace.Config{
		Logical: true, Overall: true, Aggregate: true,
		PAPIEvents: []papi.Event{papi.TOT_INS}, PAPIRecordEvery: 256,
	}
}

// program is one SPMD application on one input: a factory for the body
// the runtime runs on every PE, and the check of what the bodies
// computed against the serial oracle. The benchmark hands the program
// under test nothing but this generated input.
type program struct {
	// body returns a fresh application body for the machine and a
	// function that verifies the results the bodies left behind.
	body func(m sim.Machine) (core.App, func() error)
	// itemBytes and batch describe its messages, for the ladder replays.
	itemBytes int
	batch     bool
	// replay runs the actor rung with the program's message codec.
	replay func(t traffic, st *actorStats) error
}

// runOutcome is one execution of a program.
type runOutcome struct {
	wall  time.Duration
	set   *trace.Set
	sched *sim.Schedule
}

// execute runs the program once on machine m and times the one
// top-level call; the oracle runs after the timer has stopped.
func (p *program) execute(m sim.Machine, cfg trace.Config, captured bool, prof *shmem.APIProfile) (runOutcome, error) {
	app, verify := p.body(m)
	opts := core.Options{Machine: m, Trace: cfg, APIProfile: prof}
	var out runOutcome
	var err error
	start := time.Now()
	if captured {
		out.set, out.sched, err = core.RunCaptured(opts, app)
	} else {
		out.set, err = core.Run(opts, app)
	}
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	return out, verify()
}

// triangleProgram counts triangles of g under a 1D cyclic distribution.
func triangleProgram(g *graph.Graph, expected int64) *program {
	return &program{
		itemBytes: actor.U32PairCodec().Size,
		body: func(m sim.Machine) (core.App, func() error) {
			dist := graph.NewCyclicDist(m.NumPEs)
			counts := make([]int64, m.NumPEs)
			app := func(rt *actor.Runtime) error {
				got, err := apps.TriangleCount(rt, g, dist)
				counts[rt.PE().Rank()] = got
				return err
			}
			verify := func() error {
				for pe, c := range counts {
					if c != expected {
						return fmt.Errorf("PE %d counted %d triangles, the serial count is %d", pe, c, expected)
					}
				}
				return nil
			}
			return app, verify
		},
		replay: func(t traffic, st *actorStats) error { return actorRung(t, actor.U32PairCodec(), st) },
	}
}

// isortProgram sorts cfg's keys with batched dispatch; reference is
// apps.ISortSerial for the same machine size.
func isortProgram(cfg apps.ISortConfig, reference [][]int64) *program {
	return &program{
		itemBytes: actor.Int64Codec().Size,
		batch:     true,
		body: func(m sim.Machine) (core.App, func() error) {
			results := make([]apps.ISortResult, m.NumPEs)
			app := func(rt *actor.Runtime) error {
				res, err := apps.ISort(rt, cfg)
				results[rt.PE().Rank()] = res
				return err
			}
			verify := func() error {
				if len(reference) != m.NumPEs {
					return fmt.Errorf("isort reference built for %d PEs, run had %d", len(reference), m.NumPEs)
				}
				for pe := range results {
					if !slices.Equal(results[pe].Keys, reference[pe]) {
						return fmt.Errorf("PE %d's bucket differs from apps.ISortSerial", pe)
					}
				}
				return nil
			}
			return app, verify
		},
		replay: func(t traffic, st *actorStats) error { return actorRung(t, actor.Int64Codec(), st) },
	}
}

// simStats are the simulated statistics of one run. They describe the
// modelled machine, not the host, so a change that only makes the host
// faster must leave them alone.
type simStats struct {
	msgs      int64
	totIns    int64
	makespan  int64
	commShare float64
}

func readSimStats(set *trace.Set) simStats {
	var st simStats
	st.msgs = set.LogicalMatrix().Total()
	for _, v := range set.PAPITotalsPerPE(papi.TOT_INS) {
		st.totIns += v
	}
	var comm, total int64
	for _, o := range set.OverallRecords() {
		st.makespan = max(st.makespan, o.TTotal)
		comm += o.TComm
		total += o.TTotal
	}
	if total > 0 {
		st.commShare = float64(comm) / float64(total)
	}
	return st
}

// repTracker checks the statistics that are exact by construction
// (message and instruction totals) for equality across repetitions, and
// follows the drift of the one that is not: under batched dispatch and
// multi-node routing the makespan depends on how deliveries interleave.
type repTracker struct {
	first     simStats
	seen      bool
	makespans []float64
}

func (t *repTracker) observe(s *samples, what string, st simStats) {
	if !t.seen {
		t.first, t.seen = st, true
	}
	s.check(st.msgs == t.first.msgs && st.totIns == t.first.totIns,
		"%s: simulated totals differ between repetitions: %d messages / %d instructions, first repetition had %d / %d",
		what, st.msgs, st.totIns, t.first.msgs, t.first.totIns)
	t.makespans = append(t.makespans, float64(st.makespan))
}

func (t *repTracker) report(s *samples) {
	s.set("apps.logical_msgs", float64(t.first.msgs))
	s.set("papi.tot_ins", float64(t.first.totIns))
	s.set("sim.t_comm_share", t.first.commShare)
	ms := summarize("cycles", t.makespans)
	s.set("sim.makespan_cycles", ms.Median)
	if ms.Median > 0 {
		s.set("sim.makespan_drift", (ms.Max-ms.Min)/ms.Median)
	}
}

// repeat calls rep until at least minReps repetitions have run and
// seconds have passed, and never more than maxReps times. It collects
// garbage before each repetition, outside every timer, so that a
// repetition starts from the same heap whatever the one before it left
// behind; without that, whether a collection cycle falls inside a timed
// call is the largest source of spread between repetitions.
func repeat(seconds float64, minReps, maxReps int, rep func(i int)) {
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		if i >= minReps && time.Since(start).Seconds() >= seconds {
			return
		}
		runtime.GC()
		rep(i)
	}
}

// harnessBefore/harnessAfter bracket a repetition loop with the Go
// runtime's own allocation and collection counters.
type harnessCounters struct{ m runtime.MemStats }

func harnessBefore() *harnessCounters {
	h := &harnessCounters{}
	runtime.ReadMemStats(&h.m)
	return h
}

func (h *harnessCounters) after(s *samples, reps int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if reps > 0 {
		s.set("harness.alloc_mb_per_run", float64(m.TotalAlloc-h.m.TotalAlloc)/1e6/float64(reps))
	}
	s.set("harness.gc_cycles", float64(m.NumGC-h.m.NumGC))
	s.set("harness.gc_pause_ms", float64(m.PauseTotalNs-h.m.PauseTotalNs)/1e6)
	s.set("harness.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}

// recordCall adds one timed top-level call to the gated metrics.
func recordCall(s *samples, wall time.Duration, work int64) {
	s.add("call_p50_ms", wall.Seconds()*1e3)
	s.add("work_per_s", float64(work)/wall.Seconds())
}

// runE2E is the end-to-end pass shared by the workloads whose unit of
// work is one core.Run: a warm-up, then timed repetitions.
func runE2E(s *samples, name string, p *program, m sim.Machine, cfg trace.Config, sz sizes, seconds float64, warmup bool) {
	if warmup {
		out, err := p.execute(m, cfg, false, nil)
		s.check(err == nil, "%s warm-up: %v", name, err)
		s.set("core.cold_run_s", out.wall.Seconds())
	}
	var tr repTracker
	h := harnessBefore()
	reps := 0
	repeat(seconds, sz.minReps, sz.maxReps, func(i int) {
		out, err := p.execute(m, cfg, false, nil)
		reps++
		if err != nil {
			s.check(false, "%s rep %d: %v", name, i, err)
			return
		}
		st := readSimStats(out.set)
		tr.observe(s, name, st)
		s.add("run_wall_s", out.wall.Seconds())
		s.add("msgs_per_s", float64(st.msgs)/out.wall.Seconds())
		recordCall(s, out.wall, st.msgs)
	})
	h.after(s, reps)
	tr.report(s)
}

// tcP256E2E times triangle counting at the scale-up machine, and the
// same graph and configuration on the 16-PE twin, whose ns/message is
// the base of pe_scaling_ratio.
func tcP256E2E(s *samples, p *program, sz sizes, seconds float64) {
	twin := sz.machine(sz.twinPEs)
	cold, err := p.execute(twin, aggregateTrace(), false, nil)
	s.check(err == nil, "tc twin warm-up: %v", err)
	s.set("core.cold_run_s", cold.wall.Seconds())
	var twinNS []float64
	for i := 0; i < sz.minReps; i++ {
		out, err := p.execute(twin, aggregateTrace(), false, nil)
		s.check(err == nil, "tc twin rep %d: %v", i, err)
		if err != nil {
			continue
		}
		twinNS = append(twinNS, float64(out.wall.Nanoseconds())/float64(out.set.LogicalMatrix().Total()))
	}
	runE2E(s, "tc_p256_agg", p, sz.machine(sz.bigPEs), aggregateTrace(), sz, seconds, false)
	if base := median(twinNS); base > 0 {
		msgs := s.median("apps.logical_msgs")
		for _, wall := range s.values["run_wall_s"] {
			s.add("pe_scaling_ratio", wall*1e9/msgs/base)
		}
	}
}

// plotSet builds the seven standard plots from a trace source.
func plotSet(src trace.Source) []viz.Plot {
	return []viz.Plot{
		core.LogicalHeatmap(src, "Logical Trace"),
		core.PhysicalHeatmap(src, "Physical Trace"),
		core.LogicalViolin(src, "Logical sends/recvs per PE"),
		core.PhysicalViolin(src, "Physical buffers per PE"),
		core.PAPIBar(src, papi.TOT_INS, "PAPI_TOT_INS per PE"),
		core.PAPIGroupedBar(src, "PAPI counters per PE"),
		core.OverallStacked(src, false, "Overall breakdown"),
	}
}

// The post-mortem has two sides, as it has for a user: the profiled
// program writes its trace files (cmd/trianglecount -out), and a second
// program reads them, builds the plots and renders them (cmd/actorprof).
// The benchmark keeps the sides apart the same way: before the reading
// side starts, the in-memory set is reduced to the aggregates the oracle
// needs and released, so that the reader does not share a heap with the
// 400 MB of records it is about to parse again.

// expectation is what the reading side must reproduce from disk.
type expectation struct {
	logical, physical trace.Matrix
	overall           []trace.OverallRecord
	summary           *trace.Summary
}

func expect(set *trace.Set) expectation {
	return expectation{set.LogicalMatrix(), set.PhysicalMatrix(), set.OverallRecords(), set.Summary()}
}

// plotted is what the reading side produced.
type plotted struct {
	readBack *trace.Set
	summary  *trace.Summary
	svgs     []string
}

// stageHook brackets one stage of a post-mortem side. The layer pass
// passes one that records a span; the end-to-end pass passes none and
// times only the whole call.
type stageHook func(name string, fn func() error) error

func unstaged(_ string, fn func() error) error { return fn() }

// readAndPlot is the reading side: ReadSet and ReadSummary, the seven
// plot constructors, RenderSVG.
func readAndPlot(dir string, stage stageHook) (plotted, error) {
	var out plotted
	var plots []viz.Plot
	err := firstError(
		stage("trace.read_set", func() (err error) { out.readBack, err = trace.ReadSet(dir); return }),
		stage("trace.read_summary", func() (err error) { out.summary, _, err = trace.ReadSummary(dir, trace.ReadOptions{}); return }),
		stage("core.build_plots", func() error { plots = plotSet(out.readBack); return nil }),
		stage("viz.render_svg", func() error {
			for _, p := range plots {
				doc, err := p.RenderSVG()
				if err != nil {
					return err
				}
				out.svgs = append(out.svgs, doc)
			}
			return nil
		}),
	)
	return out, err
}

func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verify compares what came back from disk with what the run held in
// memory: three operations, one per reader output.
func (want expectation) verify(s *samples, got plotted) {
	s.check(reflect.DeepEqual(got.readBack.LogicalMatrix(), want.logical) &&
		reflect.DeepEqual(got.readBack.PhysicalMatrix(), want.physical) &&
		reflect.DeepEqual(got.readBack.OverallRecords(), want.overall),
		"ReadSet returned matrices or an overall breakdown that differ from the in-memory set")
	s.check(reflect.DeepEqual(got.summary.Logical, want.summary.Logical) &&
		reflect.DeepEqual(got.summary.Physical, want.summary.Physical) &&
		reflect.DeepEqual(got.summary.PAPITotals, want.summary.PAPITotals) &&
		reflect.DeepEqual(got.summary.Overall, want.summary.Overall),
		"ReadSummary differs from Set.Summary()")
	ok := len(got.svgs) == 7
	for _, doc := range got.svgs {
		ok = ok && strings.HasPrefix(doc, "<svg")
	}
	s.check(ok, "a rendered plot is not an SVG document")
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// tcP16FullE2E is the post-mortem user's journey at the paper's own
// operating point: a fully traced, schedule-capturing run that writes
// its trace files, then read-back and pictures, next to an untraced
// twin. Three timers, each around one top-level call: the run, the
// write, the read-to-pictures.
func tcP16FullE2E(s *samples, p *program, sz sizes, seconds float64, tmp string) {
	m := sz.machine(sz.fullPEs)
	dir := filepath.Join(tmp, "tc_p16_full")
	var tr repTracker
	journey := func(i int) (run, plot time.Duration, diskMB float64) {
		out, err := p.execute(m, core.FullTrace(), true, nil)
		if err == nil {
			err = os.RemoveAll(dir)
		}
		if err != nil {
			s.check(false, "tc_p16_full rep %d: %v", i, err)
			return 0, 0, 0
		}
		start := time.Now()
		err = out.set.WriteFiles(dir)
		write := time.Since(start)
		s.check(err == nil, "WriteFiles: %v", err)
		st, want := readSimStats(out.set), expect(out.set)
		tr.observe(s, "tc_p16_full", st)
		run, out = out.wall, runOutcome{}
		runtime.GC()

		start = time.Now()
		got, err := readAndPlot(dir, unstaged)
		read := time.Since(start)
		if err != nil {
			s.check(false, "tc_p16_full rep %d: reading side: %v", i, err)
			return 0, 0, 0
		}
		want.verify(s, got)
		// Not compared across repetitions: the per-send PAPI deltas in
		// PEi_PAPI.csv depend on which handlers ran between two sends, so
		// the file sizes differ by a few bytes while the totals agree.
		n, err := dirBytes(dir)
		s.check(err == nil, "measuring %s: %v", dir, err)
		return run, write + read, float64(n) / 1e6
	}
	cold, _, _ := journey(-1)
	s.set("core.cold_run_s", cold.Seconds())

	h := harnessBefore()
	reps := 0
	repeat(seconds, sz.minReps, sz.maxReps, func(i int) {
		reps++
		plain, err := p.execute(m, trace.Config{}, false, nil)
		if err != nil {
			s.check(false, "tc_p16_full untraced rep %d: %v", i, err)
			return
		}
		runtime.GC()
		run, plot, diskMB := journey(i)
		if run == 0 {
			return
		}
		msgs := tr.first.msgs
		s.add("trace_disk_mb", diskMB)
		s.add("run_wall_s", run.Seconds())
		s.add("msgs_per_s", float64(msgs)/run.Seconds())
		s.add("trace_overhead_ratio", run.Seconds()/plain.wall.Seconds())
		s.add("trace_to_plot_s", plot.Seconds())
		recordCall(s, run+plot, msgs)
	})
	h.after(s, reps)
	tr.report(s)
}

// --- layer pass -------------------------------------------------------------

// ladder drives every rung of the layer ladder `reps` times on machine
// m, recording one span per rung and repetition under `parent`. The
// first traced run doubles as the extraction of the replay inputs.
func ladder(rec *recorder, spanName string, parent int, p *program, m sim.Machine, cfg trace.Config, reps int) error {
	traced := cfg
	traced.Physical = true // the replays need the buffer matrix
	var t traffic
	for rep := 0; rep < reps; rep++ {
		prof := shmem.NewAPIProfile()
		runtime.GC() // as in the end-to-end pass: see repeat
		id := rec.begin(spanName, "trace", rep, parent)
		out, err := p.execute(m, traced, false, prof)
		rec.endAfter(id, out.wall)
		if err != nil {
			return fmt.Errorf("trace rung: %w", err)
		}
		if rep == 0 {
			t = extractTraffic(out.set, prof, p.itemBytes, p.batch)
			if spanName == "rung" {
				recordCounts(rec, out.set, prof, t)
			}
		}
	}
	type rung struct {
		name string
		run  func() error
	}
	var cst conveyorStats
	var ast actorStats
	for _, r := range []rung{
		{"shmem", func() error { return shmemRung(t) }},
		{"conveyor", func() error { cst = conveyorStats{}; return conveyorRung(t, &cst) }},
		{"actor", func() error { ast = actorStats{}; return p.replay(t, &ast) }},
	} {
		for rep := 0; rep < reps; rep++ {
			var err error
			runtime.GC()
			rec.measure(spanName, r.name, rep, parent, func() { err = r.run() })
			if err != nil {
				return err
			}
		}
	}
	if spanName == "rung" {
		rec.count("conveyor.advances", float64(cst.advances.Load()))
		rec.count("actor.msgs", float64(ast.msgs.Load()))
		rec.count("actor.invocations", float64(ast.invocations.Load()))
	}
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		id := rec.begin(spanName, "apps", rep, parent)
		out, err := p.execute(m, trace.Config{}, false, nil)
		rec.endAfter(id, out.wall)
		if err != nil {
			return fmt.Errorf("apps rung: %w", err)
		}
	}
	return nil
}

// recordCounts stores the exact counts the traced run exposes at the
// shmem and conveyor boundaries.
func recordCounts(rec *recorder, set *trace.Set, prof *shmem.APIProfile, t traffic) {
	rec.count("msgs", float64(t.msgs))
	rec.count("shmem.putmem_nbi_calls", float64(prof.TotalCount(shmem.RoutinePutNBI)))
	rec.count("shmem.quiet_calls", float64(prof.TotalCount(shmem.RoutineQuiet)))
	rec.count("shmem.copylocal_calls", float64(prof.TotalCount(shmem.RoutineCopyLocal)))
	rec.count("shmem.barrier_calls", float64(prof.TotalCount(shmem.RoutineBarrier)))
	kinds := set.PhysicalKindCounts()
	rec.count("conveyor.local_sends", float64(kinds[conveyor.LocalSend]))
	rec.count("conveyor.nonblock_sends", float64(kinds[conveyor.NonblockSend]))
	rec.count("conveyor.nonblock_progress", float64(kinds[conveyor.NonblockProgress]))
	// Items carried per buffer, counting an item once per hop it takes.
	bufs := kinds[conveyor.LocalSend] + kinds[conveyor.NonblockSend]
	if bufs > 0 {
		wire := float64(t.itemBytes + 8)
		payload := float64(t.localBytes)*float64(kinds[conveyor.LocalSend]) +
			float64(t.remoteBytes)*float64(kinds[conveyor.NonblockSend])
		rec.count("conveyor.items_per_buffer", payload/wire/float64(bufs))
	}
}

// microDrives times the OpenSHMEM primitives the progress loops sit on,
// under a world of machine m's size, and one clock charge.
func microDrives(rec *recorder, parent int, m sim.Machine, sz sizes) error {
	var firstErr error
	drive := func(name string, calls int, solo bool, op func(pe *shmem.PE, word int)) {
		id := rec.begin("micro", name, 0, parent)
		ns, err := microDrive(m, calls, solo, op)
		rec.end(id)
		rec.count(name, ns)
		if firstErr == nil {
			firstErr = err
		}
	}
	drive("shmem.barrier_ns", sz.microCalls/10, false, func(pe *shmem.PE, _ int) { pe.Barrier() })
	drive("shmem.yield_ns", sz.microCalls, false, func(pe *shmem.PE, _ int) { pe.Yield() })
	drive("shmem.load_ns", sz.microCalls*100, true, func(pe *shmem.PE, word int) { pe.LoadInt64(pe.Rank(), word) })

	const charges = 1 << 20
	clock, cost := sim.NewClock(sim.Virtual), sim.DefaultCostModel()
	id := rec.begin("micro", "sim.charge_ns", 0, parent)
	for i := 0; i < charges; i++ {
		clock.Charge(cost.PriceEvent(sim.EvLocalCopy, int64(i&1023)))
	}
	rec.count("sim.charge_ns", float64(rec.end(id).Nanoseconds())/charges)
	return firstErr
}

// runLayers is the layer pass of a run workload: the ladder on its
// machine, the ladder on the twin machine when it has one, the
// micro-drives, and whatever more the workload measures.
func runLayers(rec *recorder, p *program, m sim.Machine, twin *sim.Machine, cfg trace.Config, sz sizes, reps int, more func(root int) error) error {
	root := rec.begin("layer_pass", "", 0, -1)
	defer rec.end(root)
	if err := ladder(rec, "rung", root, p, m, cfg, reps); err != nil {
		return err
	}
	if twin != nil {
		if err := ladder(rec, "twin_rung", root, p, *twin, cfg, sz.minReps); err != nil {
			return err
		}
	}
	if err := microDrives(rec, root, m, sz); err != nil || more == nil {
		return err
	}
	return more(root)
}

// tcP16FullLayers adds to the ladder what only the fully traced
// workload has: schedule capture, the stages of the post-mortem, the
// binary format with its time index, and the what-if engines.
func tcP16FullLayers(rec *recorder, s *samples, p *program, sz sizes, tmp string) error {
	m := sz.machine(sz.fullPEs)
	return runLayers(rec, p, m, nil, core.FullTrace(), sz, sz.ladderReps, func(root int) error {
		return tcP16FullMore(rec, s, p, m, sz, tmp, root)
	})
}

func tcP16FullMore(rec *recorder, s *samples, p *program, m sim.Machine, sz sizes, tmp string, root int) error {
	var last runOutcome
	for rep := 0; rep < sz.ladderReps; rep++ {
		for _, captured := range []bool{false, true} {
			rung := "trace_plain"
			if captured {
				rung = "sim"
			}
			last = runOutcome{}
			runtime.GC()
			id := rec.begin("rung", rung, rep, root)
			out, err := p.execute(m, core.FullTrace(), captured, nil)
			rec.endAfter(id, out.wall)
			if err != nil {
				return fmt.Errorf("%s rung: %w", rung, err)
			}
			if captured {
				last = out
			}
		}
	}
	set, sched := last.set, last.sched
	rec.count("sim.schedule_events", float64(sched.Events()))
	rec.count("trace.records", float64(recordCount(set)))

	// The post-mortem stage by stage, in the paper's text formats.
	dir := filepath.Join(tmp, "layers_csv")
	want := expect(set)
	var svgBytes int
	for rep := 0; rep < sz.ladderReps; rep++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		runtime.GC()
		parent := rec.begin("post_mortem", "", rep, root)
		staged := func(name string, fn func() error) error {
			id := rec.begin(name, "", rep, parent)
			defer rec.end(id)
			return fn()
		}
		err := staged("trace.write", func() error { return set.WriteFiles(dir) })
		var got plotted
		if err == nil {
			got, err = readAndPlot(dir, staged)
		}
		rec.end(parent)
		if err != nil {
			return err
		}
		want.verify(s, got)
		svgBytes = 0
		for _, doc := range got.svgs {
			svgBytes += len(doc)
		}
	}
	rec.count("viz.svg_bytes", float64(svgBytes))
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rec.count("trace.disk_bytes", float64(n))

	// The binary format, its time index, and windowed queries over it.
	bin := *set
	bin.Config.Format = trace.FormatBinary
	binDir := filepath.Join(tmp, "layers_bin")
	if err := bin.WriteFiles(binDir); err != nil {
		return err
	}
	for rep := 0; rep < sz.ladderReps; rep++ {
		var built bool
		var err error
		rec.measure("trace.build_index", "", rep, root, func() { built, err = trace.BuildTimeIndex(binDir) })
		if err != nil || !built {
			return fmt.Errorf("BuildTimeIndex on the binary trace: built=%v err=%v", built, err)
		}
	}
	if err := windowQueries(rec, s, root, binDir, sz.windowQueries); err != nil {
		return err
	}
	return whatIfEngines(rec, s, root, sched, sz.ladderReps)
}

// recordCount is the number of logical, PAPI and physical records in a set.
func recordCount(set *trace.Set) int {
	var n int
	for pe := 0; pe < set.NumPEs; pe++ {
		n += len(set.Logical[pe]) + len(set.PAPI[pe]) + len(set.Physical[pe])
	}
	return n
}

// windowQueries times n queries through dir's time index, each over one
// sixteenth of the trace's span, alternating raw events and the first
// pyramid level. The windows come from a fixed stream: they probe the
// index, they are not a workload input.
func windowQueries(rec *recorder, s *samples, root int, dir string, n int) error {
	ix, err := trace.LoadTimeIndex(dir)
	if err != nil {
		return err
	}
	rng := workloadStream(0, "window-queries")
	span := ix.TMax - ix.TMin + 1
	for q := 0; q < n; q++ {
		t0 := ix.TMin + int64(rng.intn(16))*span/16
		w := trace.Window{T0: t0, T1: t0 + span/16, LOD: q % 2, MaxEvents: 50000}
		var res *trace.WindowResult
		var err error
		rec.measure("trace.window_query", "", q, root, func() { res, err = ix.Query(dir, w) })
		s.check(err == nil && res != nil && !res.FullScan, "window query %+v: %v", w, err)
	}
	return nil
}

// whatIfEngines times the projection, the replay and their validated
// comparison over a captured schedule, unperturbed, and checks that the
// two engines agree.
func whatIfEngines(rec *recorder, s *samples, root int, sched *sim.Schedule, reps int) error {
	identity := whatif.Identity(sched)
	for rep := 0; rep < reps; rep++ {
		var errP, errR, errC error
		var an *whatif.Analysis
		var totals whatif.RunTotals
		rec.measure("whatif.project", "", rep, root, func() { an, errP = whatif.Project(sched, identity) })
		rec.measure("whatif.replay", "", rep, root, func() { totals, errR = whatif.Replay(sched, identity) })
		rec.measure("whatif.compare", "", rep, root, func() { _, errC = whatif.Compare(sched, identity) })
		if err := firstError(errP, errR, errC); err != nil {
			return fmt.Errorf("what-if over the captured schedule: %w", err)
		}
		s.check(an.Totals.Equal(totals), "what-if projection and replay disagree on the baseline")
	}
	return nil
}
