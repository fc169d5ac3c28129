package actor

import (
	"actorprof/internal/conveyor"
	"actorprof/internal/hclib"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// RuntimeOptions configures the per-PE actor runtime.
type RuntimeOptions struct {
	// Collector, when non-nil, receives ActorProf trace data. The same
	// *trace.Collector must be passed on every PE.
	Collector *trace.Collector
	// Costs is the PAPI cost model; zero value means
	// papi.DefaultCostModel().
	Costs papi.CostModel
	// BufferItems is the conveyor aggregation buffer capacity in items
	// (default: conveyor's default).
	BufferItems int
	// Topology selects the conveyor routing scheme (default auto:
	// 1D Linear / 2D Mesh / 3D Cube by node count).
	Topology conveyor.Topology
}

// Runtime is the per-PE HClib-Actor runtime: it owns the PE's cooperative
// task queue, its PAPI counter bank, and the ActorProf instrumentation
// state. Create one per PE with NewRuntime inside the SPMD body, and
// Close it before the body returns.
type Runtime struct {
	pe     *shmem.PE
	ctx    *hclib.Context
	engine *papi.Engine
	costs  papi.CostModel
	opts   RuntimeOptions
	// insCycles/insScale are the world cost model's instruction price,
	// cached because World.Cost() returns the whole model by value and
	// Work runs once per message (as Selector caches sendCyc).
	insCycles, insScale int64

	pc *trace.PECollector // nil when tracing is disabled

	// paused suspends all collection (logical, PAPI, overall), so
	// applications can exclude setup phases, as the paper's case study
	// excludes graph loading and validation.
	paused bool

	// Overall-breakdown region state. The MAIN timer runs while user
	// code inside a Finish body executes; it pauses while runtime
	// internals (aggregation, transfers, termination) run, and handler
	// executions are carved out into PROC.
	profiling   bool  // inside an instrumented Finish
	finishStart int64 // clock at Finish entry
	mainStart   int64 // clock when MAIN last resumed; -1 when paused
	inHandler   bool
	tMain       int64 // accumulated this run
	tProc       int64
	tTotal      int64

	// zeroDepth tracks nested runtime sections so pauseMain/resumeMain
	// can nest safely.
	runtimeDepth int

	// selectorSeq numbers this PE's selectors in creation order. The
	// creation sequence is collective (every PE creates the same
	// selectors in the same order), so the ordinal identifies the same
	// logical actor on every PE; handler schedule markers carry
	// sim.ActorID(ordinal, mailbox).
	selectorSeq int
}

// NewRuntime creates the actor runtime for one PE. It is a collective
// call when opts.Collector is set (all PEs must construct their runtimes
// before selectors are created, which New enforces with its own
// collectives anyway).
func NewRuntime(pe *shmem.PE, opts RuntimeOptions) *Runtime {
	if opts.Costs == (papi.CostModel{}) {
		opts.Costs = papi.DefaultCostModel()
	}
	rt := &Runtime{
		pe:     pe,
		ctx:    hclib.New(),
		engine: papi.NewEngine(),
		costs:  opts.Costs,
		opts:   opts,
	}
	cost := pe.World().Cost()
	rt.insCycles, rt.insScale = cost.InstructionCycles, cost.InstructionScale
	if opts.Collector != nil {
		rt.pc = opts.Collector.ForPE(pe.Rank(), rt.engine)
	}
	return rt
}

// PE returns the underlying OpenSHMEM processing element.
func (rt *Runtime) PE() *shmem.PE { return rt.pe }

// Engine returns the PE's PAPI counter bank.
func (rt *Runtime) Engine() *papi.Engine { return rt.engine }

// Costs returns the PAPI cost model in effect.
func (rt *Runtime) Costs() papi.CostModel { return rt.costs }

// Pause suspends trace collection on this PE (setup/validation phases).
func (rt *Runtime) Pause() { rt.paused = true }

// Resume re-enables trace collection.
func (rt *Runtime) Resume() { rt.paused = false }

// Close flushes this PE's trace data into the collector. Call once, when
// the PE's work is complete.
func (rt *Runtime) Close() {
	if rt.pc != nil {
		if rt.tTotal > 0 {
			rt.pc.OverallBreakdown(rt.tMain, rt.tProc, rt.tTotal)
		}
		rt.pc.Close()
	}
}

// Segment measures fn as a named user segment: the paper's
// segment-level HWPC profiling, where users place tracing functions
// around code regions that involve no asynchronous communication. The
// segment's cycles and configured PAPI counter deltas aggregate per
// (PE, name) into the trace's segments.txt. Without a collector (or
// while paused), fn simply runs.
func (rt *Runtime) Segment(name string, fn func()) {
	if !rt.collecting() {
		fn()
		return
	}
	tok := rt.pc.SegmentEnter(name, rt.pe.Clock().Now())
	fn()
	rt.pc.SegmentExit(tok, rt.pe.Clock().Now())
}

// Work reports application-level work (the handler body's computation,
// or local computation in the MAIN segment) to the PAPI engine and
// charges the simulated instruction cost to the PE's clock. This is how
// instrumented applications model their compute; real code would simply
// execute and be counted by the PMU.
func (rt *Runtime) Work(w papi.Work) {
	rt.engine.Tally(&w)
	rt.pe.ChargeInstr(rt.instrCost(w.Ins), w.Ins, 1)
}

// WorkN reports w once for each of n messages: what a ProcessBatch
// handler calls with len(msgs) where a Process handler calls Work per
// message, and what follows a loop that would call Work(w) per element and
// sends nothing - with the same counters, the same simulated time and the
// same recorded schedule as the n calls.
func (rt *Runtime) WorkN(w papi.Work, n int) {
	if n <= 0 {
		return
	}
	run := w.Scale(int64(n))
	rt.engine.Tally(&run)
	rt.pe.ChargeInstr(rt.instrCost(w.Ins), w.Ins, int64(n))
}

// instrCost is World().Cost().InstructionCost(ins) from the cached price.
func (rt *Runtime) instrCost(ins int64) int64 {
	return sim.PriceInstructions(ins, rt.insCycles, rt.insScale)
}

// Finish opens an hclib finish scope, runs body, and waits until every
// task spawned within it - including selector progress workers - has
// completed. When tracing is active, the scope is the unit of the overall
// T_MAIN/T_COMM/T_PROC breakdown: the scope's duration (through the
// trailing clock-synchronizing barrier, which models the BSP superstep
// boundary where every PE waits for the stragglers) is T_TOTAL.
func (rt *Runtime) Finish(body func()) {
	// A schedule recording measures the scope even without a trace
	// collector: the markers are what let the what-if engine reconstruct
	// the breakdown offline.
	measured := (rt.pc != nil || rt.pe.Recording()) && !rt.paused && !rt.profiling
	if measured {
		rt.profiling = true
		rt.pe.RecordEvent(sim.EvFinishStart, 0)
		rt.finishStart = rt.pe.Clock().Now()
		rt.mainStart = rt.finishStart
	}
	rt.ctx.Finish(body)
	if measured {
		// The user body has returned and all workers have drained; the
		// remainder until the barrier releases is communication/wait.
		rt.pauseMainTimer()
		rt.pe.Barrier()
		now := rt.pe.Clock().Now()
		rt.tTotal += now - rt.finishStart
		rt.pe.RecordEvent(sim.EvFinishEnd, 0)
		rt.profiling = false
	}
	// A nested Finish inside an instrumented one needs no handling: the
	// outer scope's attribution continues seamlessly.
}

// Async schedules fn on this PE's cooperative queue (hclib::async).
func (rt *Runtime) Async(fn func()) { rt.ctx.Async(fn) }

// Yield lets one queued runtime task run (cooperative interleaving point
// for long local computations).
func (rt *Runtime) Yield() { rt.ctx.Yield() }

// --- overall-breakdown internals -----------------------------------------

// pauseMainTimer stops attributing time to MAIN (entering runtime
// internals). Safe to call when not measuring.
func (rt *Runtime) pauseMainTimer() {
	if !rt.profiling || rt.mainStart < 0 {
		return
	}
	rt.tMain += rt.pe.Clock().Now() - rt.mainStart
	rt.mainStart = -1
	rt.pe.RecordEvent(sim.EvMainPause, 0)
}

// resumeMainTimer resumes MAIN attribution (returning to user code).
func (rt *Runtime) resumeMainTimer() {
	if !rt.profiling || rt.mainStart >= 0 {
		return
	}
	rt.pe.RecordEvent(sim.EvMainResume, 0)
	rt.mainStart = rt.pe.Clock().Now()
}

// enterRuntime/exitRuntime bracket conveyor progress sections. They nest:
// only the outermost pair toggles the MAIN timer.
func (rt *Runtime) enterRuntime() {
	if rt.runtimeDepth == 0 {
		rt.pauseMainTimer()
	}
	rt.runtimeDepth++
}

func (rt *Runtime) exitRuntime() {
	rt.runtimeDepth--
	if rt.runtimeDepth == 0 {
		rt.resumeMainTimer()
	}
}

// handlerEnter/handlerExit bracket one message-handler execution; the
// elapsed cycles accumulate into PROC. Handlers only run inside runtime
// progress (COMM attribution), so PROC is carved out of COMM, never out
// of MAIN. Nested handlers (a handler whose Send makes progress and
// dispatches further handlers) are covered by the outermost interval;
// handlerEnter returns -1 for them so the time is not double counted.
func (rt *Runtime) handlerEnter(actor int64) int64 {
	if rt.inHandler {
		return -1
	}
	rt.inHandler = true
	rt.pe.RecordEvent(sim.EvHandlerStart, actor)
	return rt.pe.Clock().Now()
}

func (rt *Runtime) handlerExit(actor, start int64) {
	if start < 0 {
		return
	}
	rt.inHandler = false
	if rt.profiling {
		rt.tProc += rt.pe.Clock().Now() - start
	}
	rt.pe.RecordEvent(sim.EvHandlerEnd, actor)
}

// nextSelectorOrdinal hands out this PE's next selector creation
// ordinal (see selectorSeq).
func (rt *Runtime) nextSelectorOrdinal() int {
	ord := rt.selectorSeq
	rt.selectorSeq++
	return ord
}

// collecting reports whether per-event trace hooks should fire.
func (rt *Runtime) collecting() bool { return rt.pc != nil && !rt.paused }
