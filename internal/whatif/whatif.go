// Package whatif is the causal what-if profiler: it consumes a
// schedule recorded during a run (sim.Schedule, captured via
// shmem.Config.Schedule) and answers prescriptive questions the
// descriptive plots cannot - what is the critical path, which actor is
// the bottleneck, and what would T_MAIN/T_COMM/T_PROC become if a cost
// were different or a handler were faster.
//
// Two independent engines consume the same recorded schedule:
//
//   - Replay re-executes the event log through real sim.Clock instances
//     with barrier-generation synchronization - a deterministic re-run
//     of the recorded schedule under the perturbed cost model.
//   - Project computes the same quantities analytically from the
//     barrier-generation decomposition (M[g+1] = M[g] + max over PEs of
//     the generation's charge sum), plus the critical path and
//     bottleneck ranking.
//
// The two share only the event pricing; their exact agreement
// (bit-identical totals, enforced by Compare and the differential test
// suite) is the correctness oracle for both. See DESIGN.md §14 for the
// validity envelope: cost-model and handler-speedup perturbations are
// exact, structural perturbations (buffer sizes, machine shape) change
// the schedule itself and need an actual re-run (core.RunCaptured with
// modified options).
package whatif

import (
	"fmt"
	"math"

	"actorprof/internal/sim"
)

// Totals is one PE's overall breakdown in virtual cycles, reconstructed
// from a schedule. For an unperturbed projection it equals the run's
// recorded overall record exactly.
type Totals struct {
	TMain  int64 `json:"t_main"`
	TProc  int64 `json:"t_proc"`
	TComm  int64 `json:"t_comm"`
	TTotal int64 `json:"t_total"`
}

// Add accumulates o into t.
func (t *Totals) Add(o Totals) {
	t.TMain += o.TMain
	t.TProc += o.TProc
	t.TComm += o.TComm
	t.TTotal += o.TTotal
}

// RunTotals is the per-PE breakdown of a whole (re-priced) run.
type RunTotals struct {
	PerPE []Totals `json:"per_pe"`
	// Makespan is the maximum final clock value across PEs: the
	// wall-clock cycles of the whole SPMD program under this pricing.
	Makespan int64 `json:"makespan"`
}

// Sum returns the breakdown summed over PEs (the paper's aggregate
// overall figures).
func (r RunTotals) Sum() Totals {
	var s Totals
	for _, t := range r.PerPE {
		s.Add(t)
	}
	return s
}

// Equal reports bit-identical totals (the differential oracle).
func (r RunTotals) Equal(o RunTotals) bool {
	if r.Makespan != o.Makespan || len(r.PerPE) != len(o.PerPE) {
		return false
	}
	for i := range r.PerPE {
		if r.PerPE[i] != o.PerPE[i] {
			return false
		}
	}
	return true
}

// CostScales multiplies groups of sim.CostModel fields. The zero value
// of each factor (and any factor <= 0) means "unchanged"; results round
// to the nearest cycle.
type CostScales struct {
	// Network scales NetworkLatency and NetworkPerByte.
	Network float64 `json:"network,omitempty"`
	// Local scales LocalCopyLatency and LocalCopyPerByte.
	Local float64 `json:"local,omitempty"`
	// Quiet scales QuietLatency and SignalLatency.
	Quiet float64 `json:"quiet,omitempty"`
	// Instr scales InstructionCycles (per-instruction cost).
	Instr float64 `json:"instr,omitempty"`
	// Ingest scales ItemIngestCycles.
	Ingest float64 `json:"ingest,omitempty"`
}

// Phrases describes the factors that change the pricing, in field
// order: "network x2", "quiet x0.5". Unset factors and factors of 1 are
// left out.
func (sc CostScales) Phrases() []string {
	names := [...]string{"network", "local", "quiet", "instr", "ingest"}
	var parts []string
	for i, f := range [...]float64{sc.Network, sc.Local, sc.Quiet, sc.Instr, sc.Ingest} {
		if f > 0 && f != 1 {
			parts = append(parts, fmt.Sprintf("%s x%g", names[i], f))
		}
	}
	return parts
}

func scale64(v int64, f float64) int64 {
	if f <= 0 || f == 1 {
		return v
	}
	return int64(math.Round(float64(v) * f))
}

// ScaledCost returns base with the scale groups applied.
func ScaledCost(base sim.CostModel, sc CostScales) sim.CostModel {
	c := base
	c.NetworkLatency = scale64(c.NetworkLatency, sc.Network)
	c.NetworkPerByte = scale64(c.NetworkPerByte, sc.Network)
	c.LocalCopyLatency = scale64(c.LocalCopyLatency, sc.Local)
	c.LocalCopyPerByte = scale64(c.LocalCopyPerByte, sc.Local)
	c.QuietLatency = scale64(c.QuietLatency, sc.Quiet)
	c.SignalLatency = scale64(c.SignalLatency, sc.Quiet)
	c.InstructionCycles = scale64(c.InstructionCycles, sc.Instr)
	c.ItemIngestCycles = scale64(c.ItemIngestCycles, sc.Ingest)
	return c
}

// Perturbation is one what-if hypothesis over a recorded schedule.
type Perturbation struct {
	// Cost is the cost model to re-price the schedule with. Required;
	// use the schedule's own model (or Identity) for a baseline.
	Cost sim.CostModel `json:"cost"`
	// HandlerSpeedup divides every charge made *inside* the named
	// actor's handler intervals by the factor ("handler X is 2× faster"
	// is factor 2). Keys are canonical sim.ActorID values (batched
	// activations are matched by their canonical ID, regardless of the
	// message count packed into their markers); factors must be > 0.
	// Per-message dispatch overhead is charged before the handler
	// bracket and is deliberately not scaled - only the handler body is.
	HandlerSpeedup map[int64]float64 `json:"handler_speedup,omitempty"`
}

// Identity is the no-op perturbation for s: its own recorded cost
// model, no speedups. Projecting it reproduces the recorded run.
func Identity(s *sim.Schedule) Perturbation { return Perturbation{Cost: s.Cost} }

// Validate checks the perturbation is priceable.
func (p Perturbation) Validate() error {
	if err := p.Cost.Validate(); err != nil {
		return err
	}
	for id, f := range p.HandlerSpeedup {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("whatif: handler %d speedup factor must be positive and finite, got %v", id, f)
		}
	}
	return nil
}

// price is the effective cost of one recorded event under this
// perturbation, given the attribution state at that point: cycles per
// occurrence and the occurrence count (above 1 only for a sim.InstrRun:
// speed-up and skew round per message, so a run costs what its messages
// would have separately). It is the single pricing definition shared by
// Replay and Project; their exact agreement depends on both calling it.
func (p *Perturbation) price(kind sim.EventKind, arg int64, inHandler bool, handler int64) (cycles, count int64) {
	count = 1
	if kind == sim.EvInstr {
		_, count = sim.InstrRunParts(arg)
	}
	n := p.Cost.PriceEvent(kind, arg)
	if inHandler && len(p.HandlerSpeedup) > 0 {
		if f, ok := p.HandlerSpeedup[handler]; ok {
			n = int64(float64(n) / f)
		}
	}
	return n, count
}

// charge is what price advances a clock of the given skew by: exactly
// Clock.ChargeRun's arithmetic, for the engine that keeps no Clock.
func (p *Perturbation) charge(ev sim.Event, st *attrib, skew int64) int64 {
	n, count := p.price(ev.Kind, ev.Arg, st.inHandler, st.handler)
	return count * sim.SkewCharge(n, skew)
}

// attrib mirrors the actor runtime's T_MAIN/T_COMM/T_PROC state machine
// over recorded markers. Markers were only recorded where the live
// transition actually fired (e.g. no nested-handler brackets, no pause
// without a running MAIN timer), so transitions apply unconditionally
// and the reconstruction matches the live attribution bit-for-bit.
type attrib struct {
	profiling   bool
	inHandler   bool
	handler     int64
	finishStart int64
	mainStart   int64
	hstart      int64
	t           Totals
}

// marker applies one marker event observed at clock value now.
func (a *attrib) marker(kind sim.EventKind, arg, now int64) {
	switch kind {
	case sim.EvFinishStart:
		a.profiling = true
		a.finishStart = now
		a.mainStart = now
	case sim.EvFinishEnd:
		a.t.TTotal += now - a.finishStart
		a.profiling = false
	case sim.EvMainPause:
		a.t.TMain += now - a.mainStart
		a.mainStart = -1
	case sim.EvMainResume:
		a.mainStart = now
	case sim.EvHandlerStart:
		a.inHandler = true
		// Batched activations pack the message count into the marker
		// argument; handler state (and HandlerSpeedup keys) use the
		// canonical actor ID.
		a.handler, _ = sim.ActorIDCanon(arg)
		a.hstart = now
	case sim.EvHandlerEnd:
		a.inHandler = false
		if a.profiling {
			a.t.TProc += now - a.hstart
		}
	}
}

// finish derives the residual T_COMM once a PE's walk is complete.
func (a *attrib) finish() Totals {
	t := a.t
	t.TComm = t.TTotal - t.TMain - t.TProc
	return t
}

// Replay deterministically re-executes the recorded schedule under the
// perturbation: real sim.Clock instances (Virtual mode, recorded per-PE
// skew), every charge re-priced, clocks synchronized to the maximum at
// every barrier generation exactly as the live runtime does. This is
// the ground truth the analytic Project is validated against.
func Replay(s *sim.Schedule, p Perturbation) (RunTotals, error) {
	if err := s.Validate(); err != nil {
		return RunTotals{}, err
	}
	if err := p.Validate(); err != nil {
		return RunTotals{}, err
	}
	return replay(s, p)
}

// replay is Replay of a schedule and a perturbation already validated.
func replay(s *sim.Schedule, p Perturbation) (RunTotals, error) {
	n := len(s.PEs)
	clocks := make([]*sim.Clock, n)
	states := make([]attrib, n)
	idx := make([]int, n)
	for i := range clocks {
		clocks[i] = sim.NewClock(sim.Virtual)
		clocks[i].SetSkewPercent(s.PEs[i].Skew)
	}
	for {
		atBarrier := 0
		for pe := 0; pe < n; pe++ {
			evs := s.PEs[pe].Events
			for idx[pe] < len(evs) {
				ev := evs[idx[pe]]
				if ev.Kind == sim.EvBarrier {
					atBarrier++
					break
				}
				if ev.Kind.Charged() {
					st := &states[pe]
					clocks[pe].ChargeRun(p.price(ev.Kind, ev.Arg, st.inHandler, st.handler))
				} else {
					states[pe].marker(ev.Kind, ev.Arg, clocks[pe].Now())
				}
				idx[pe]++
			}
		}
		if atBarrier == 0 {
			break
		}
		if atBarrier != n {
			// Schedule.Validate guarantees equal barrier counts, so every
			// round either all PEs arrive or all are exhausted.
			return RunTotals{}, fmt.Errorf("whatif: replay desynchronized (%d of %d PEs at a barrier)", atBarrier, n)
		}
		var max int64
		for pe := range clocks {
			if now := clocks[pe].Now(); now > max {
				max = now
			}
		}
		for pe := range clocks {
			clocks[pe].AdvanceTo(max)
			idx[pe]++ // past the barrier marker
		}
	}
	out := RunTotals{PerPE: make([]Totals, n)}
	for pe := range states {
		out.PerPE[pe] = states[pe].finish()
		if now := clocks[pe].Now(); now > out.Makespan {
			out.Makespan = now
		}
	}
	return out, nil
}

// Delta summarizes projected minus baseline, aggregated over PEs.
type Delta struct {
	TMain  int64 `json:"t_main"`
	TProc  int64 `json:"t_proc"`
	TComm  int64 `json:"t_comm"`
	TTotal int64 `json:"t_total"`
	// Makespan is the projected wall-clock change; MakespanPct the same
	// as a percentage of the baseline.
	Makespan    int64   `json:"makespan"`
	MakespanPct float64 `json:"makespan_pct"`
}

// Report is a full what-if answer: baseline and projected analyses plus
// the headline deltas, cross-checked against a deterministic replay.
type Report struct {
	Baseline  *Analysis `json:"baseline"`
	Projected *Analysis `json:"projected"`
	Delta     Delta     `json:"delta"`
}

// Baseline is a validated schedule and its projection under its own
// recorded pricing: what every what-if question over one run shares.
// It is read-only once built, so concurrent Compares may share it, and
// every Report they return points at its Analysis.
type Baseline struct {
	s  *sim.Schedule
	an *Analysis
}

// NewBaseline validates s and projects its recorded pricing.
func NewBaseline(s *sim.Schedule) (*Baseline, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Baseline{s: s, an: project(s, Identity(s))}, nil
}

// Schedule returns the validated schedule.
func (b *Baseline) Schedule() *sim.Schedule { return b.s }

// Compare projects the perturbation against the schedule's own recorded
// pricing and differentially validates the projection: the analytic
// totals must agree bit-for-bit with a deterministic replay of the
// perturbed schedule, otherwise an error is returned (an engine bug,
// never a data artifact). It is NewBaseline(s).Compare(p), kept off the heap.
func Compare(s *sim.Schedule, p Perturbation) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := Baseline{s: s, an: project(s, Identity(s))}
	return b.Compare(p)
}

// Compare is the package-level Compare against b's schedule: one
// projection and one replay of p, checked against each other.
func (b *Baseline) Compare(p Perturbation) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, proj := b.an, project(b.s, p)
	replayed, err := replay(b.s, p)
	if err != nil {
		return nil, err
	}
	if !proj.Totals.Equal(replayed) {
		return nil, fmt.Errorf("whatif: projection disagrees with deterministic replay (projected makespan %d, replayed %d); this is an engine bug",
			proj.Totals.Makespan, replayed.Makespan)
	}
	bs, ps := base.Totals.Sum(), proj.Totals.Sum()
	d := Delta{
		TMain:    ps.TMain - bs.TMain,
		TProc:    ps.TProc - bs.TProc,
		TComm:    ps.TComm - bs.TComm,
		TTotal:   ps.TTotal - bs.TTotal,
		Makespan: proj.Totals.Makespan - base.Totals.Makespan,
	}
	if base.Totals.Makespan > 0 {
		d.MakespanPct = 100 * float64(d.Makespan) / float64(base.Totals.Makespan)
	}
	return &Report{Baseline: base, Projected: proj, Delta: d}, nil
}
