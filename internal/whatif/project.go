package whatif

import (
	"sort"

	"actorprof/internal/sim"
)

// Analysis is the full analytic result of projecting one perturbation
// over a recorded schedule: per-PE breakdown totals, the instrumented
// finish windows with their critical paths, and the per-actor
// bottleneck ranking.
type Analysis struct {
	// Cost is the effective cost model the schedule was priced with.
	Cost   sim.CostModel `json:"cost"`
	Totals RunTotals     `json:"totals"`
	// Windows lists the instrumented Finish scopes in run order. Most
	// apps have exactly one.
	Windows     []Window     `json:"windows"`
	Bottlenecks []Bottleneck `json:"bottlenecks"`
}

// Window is one instrumented Finish scope: the T_TOTAL measurement
// window, from the earliest per-PE finish start to the post-barrier
// release that ends the scope on every PE simultaneously.
type Window struct {
	Index int   `json:"index"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Span equals End-Start, which equals the maximum recorded T_TOTAL
	// contribution across PEs for this window - the run's main-loop
	// duration the critical path must account for end to end.
	Span int64        `json:"span"`
	Path CriticalPath `json:"path"`
}

// CriticalPath is the longest dependency chain through a window: per
// barrier generation, the chain occupies the PE whose charges determined
// the generation's release time (every other PE merely waited at the
// barrier), so the edges tile the window exactly and their durations sum
// to Span.
type CriticalPath struct {
	Edges []PathEdge `json:"edges"`
	Span  int64      `json:"span"`
}

// PathEdge is one segment of the critical path: a maximal run of
// consecutive generations won by the same PE, with its cycles attributed
// both by regime (MAIN/COMM/PROC) and by event kind.
type PathEdge struct {
	PE int `json:"pe"`
	// Gen is the first barrier generation of the (merged) segment.
	Gen   int   `json:"gen"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Breakdown attributes the segment's charged cycles.
	Breakdown Breakdown `json:"breakdown"`
}

// Breakdown attributes charged cycles by profiling regime and by event
// kind. The regime fields and the kind fields each sum to the covered
// duration.
type Breakdown struct {
	// Regimes: MAIN (user code between runtime sections), COMM (runtime
	// aggregation/transfer sections), PROC (handler bodies), Off
	// (outside any instrumented finish window).
	Main int64 `json:"main,omitempty"`
	Comm int64 `json:"comm,omitempty"`
	Proc int64 `json:"proc,omitempty"`
	Off  int64 `json:"off,omitempty"`
	// Kinds, mirroring the charged sim.EventKind values; Stall covers
	// fault delays and raw application charges.
	Network int64 `json:"network,omitempty"`
	Local   int64 `json:"local,omitempty"`
	Quiet   int64 `json:"quiet,omitempty"`
	Instr   int64 `json:"instr,omitempty"`
	Ingest  int64 `json:"ingest,omitempty"`
	Stall   int64 `json:"stall,omitempty"`
}

const (
	regimeOff = iota
	regimeMain
	regimeComm
	regimeProc
)

func regimeOf(st *attrib) int {
	if !st.profiling {
		return regimeOff
	}
	if st.inHandler {
		return regimeProc
	}
	if st.mainStart >= 0 {
		return regimeMain
	}
	return regimeComm
}

func (b *Breakdown) add(kind sim.EventKind, regime int, dur int64) {
	switch regime {
	case regimeMain:
		b.Main += dur
	case regimeComm:
		b.Comm += dur
	case regimeProc:
		b.Proc += dur
	default:
		b.Off += dur
	}
	switch kind {
	case sim.EvNetworkPut:
		b.Network += dur
	case sim.EvLocalCopy:
		b.Local += dur
	case sim.EvQuiet:
		b.Quiet += dur
	case sim.EvInstr:
		b.Instr += dur
	case sim.EvIngest:
		b.Ingest += dur
	default:
		b.Stall += dur
	}
}

func (b *Breakdown) merge(o Breakdown) {
	b.Main += o.Main
	b.Comm += o.Comm
	b.Proc += o.Proc
	b.Off += o.Off
	b.Network += o.Network
	b.Local += o.Local
	b.Quiet += o.Quiet
	b.Instr += o.Instr
	b.Ingest += o.Ingest
	b.Stall += o.Stall
}

// Bottleneck is one actor's saturation measure, in the spirit of the
// OneFlow profiler's CalcBottleNeckScore: average handler duration over
// average activation interval. A score near 1 means the actor is busy
// back-to-back - speeding it up shortens the run; a score near 0 means
// it idles between activations and is not the constraint.
type Bottleneck struct {
	// Actor is the canonical sim.ActorID; Label renders it as
	// s<ordinal>/m<mailbox>.
	Actor int64  `json:"actor"`
	Label string `json:"label"`
	// Activations counts outermost handler executions across all PEs: a
	// delivered run counts once here no matter how many messages it
	// held.
	Activations int64 `json:"activations"`
	// Messages counts the messages those activations delivered (the
	// markers' packed run lengths), >= Activations.
	Messages int64 `json:"messages"`
	// TotalCycles is the summed duration of those executions.
	TotalCycles int64 `json:"total_cycles"`
	// AvgCycles is TotalCycles / Messages: the per-message handler cost.
	// Normalizing by messages rather than activations keeps it
	// independent of how deliveries happened to fall into runs - longer
	// runs mean fewer (but proportionally longer) activations.
	AvgCycles float64 `json:"avg_cycles"`
	// AvgInterval is the mean start-to-start spacing of consecutive
	// activations on the same PE (0 when no PE saw two activations).
	AvgInterval float64 `json:"avg_interval"`
	// Score is TotalCycles/Activations over AvgInterval (busy fraction
	// of the activation cadence, independent of batching granularity
	// only in the numerator's units).
	Score float64 `json:"score"`
}

type actorAgg struct {
	count  int64
	msgs   int64
	cycles int64
	pe     []actorPE
}

// actorPE is one actor's activations on one PE: how many, and the first
// and last one's clock as a prefix into its generation.
type actorPE struct {
	cnt, first, last int64
	fg, lg           int
}

// Project analytically re-prices a recorded schedule under the
// perturbation. It exploits the barrier-generation structure: every
// barrier is an all-PE collective that synchronizes all clocks to the
// maximum, so with M[0] = 0 and M[g+1] = M[g] + max over PEs of the
// generation-g charge sum, every PE's clock equals M[g] exactly when
// generation g begins, and every event's absolute clock is M[g] plus
// the PE's running charge prefix. One walk then reconstructs the
// per-PE regime totals, the finish windows, the per-generation winners
// (the critical path), and the per-actor activation statistics.
//
// Project and Replay share only event pricing; Compare (and the
// differential test suite) enforces that their totals agree
// bit-for-bit.
func Project(s *sim.Schedule, p Perturbation) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return project(s, p), nil
}

// project is Project of a schedule and a perturbation already validated.
// It walks each PE's log once. A PE's clock at an event is M[g] plus the
// PE's charges so far in generation g, and M is known only once every PE
// has been walked, so the walk keeps a time as its generation and that
// prefix: the attribution state machine runs on prefixes, an interval it
// closes across barriers is owed M[to] - M[from], and every time the
// analysis reports is resolved once M is known.
func project(s *sim.Schedule, p Perturbation) *Analysis {
	n := len(s.PEs)
	gens := s.PEs[0].Barriers() + 1
	blk := cursorBlocks.Get().(*sim.Block) // every walk here is over one log at a time
	defer cursorBlocks.Put(blk)

	// Per PE and generation (row pe*gens+g): the charge sum under the
	// perturbed pricing, the breakdown of those charges and the
	// attribution state the PE entered the generation in. The winners'
	// breakdowns and states make the critical path.
	gsum := make([]int64, n*gens)
	bd := make([]Breakdown, n*gens)
	gst := make([]attrib, n*gens)
	totals := RunTotals{PerPE: make([]Totals, n)}
	actors := make(map[int64]*actorAgg)
	type mark struct {
		finish, g int
		prefix    int64
		start     bool
	}
	type owe struct {
		t        *int64
		to, from int
	}
	marks := make([]mark, 0, 2*n)  // finish markers, resolved into windows
	owed := make([]owe, 0, n*gens) // intervals closed in a later generation than they opened; a MAIN interval across a barrier, mostly
	for pe := 0; pe < n; pe++ {
		skew, row := s.PEs[pe].Skew, pe*gens
		var st attrib
		var from [3]int // the generation the open finish window, MAIN interval and handler began in
		g, finishes := 0, 0
		var prefix int64
		t := &totals.PerPE[pe]
		settle := func(total *int64, i int) { // an interval opened in generation from[i] ends now
			if from[i] != g {
				owed = append(owed, owe{total, g, from[i]})
			}
		}
		c := s.PEs[pe].Walk(blk)
		for evs := c.Next(); evs != nil; evs = c.Next() {
			for _, ev := range evs {
				if ev.Kind == sim.EvBarrier {
					gsum[row+g] = prefix
					g, prefix = g+1, 0
					gst[row+g] = st
					continue
				}
				if ev.Kind.Charged() {
					dur := p.charge(ev, &st, skew)
					bd[row+g].add(ev.Kind, regimeOf(&st), dur)
					prefix += dur
					continue
				}
				switch ev.Kind {
				case sim.EvFinishStart:
					marks = append(marks, mark{finishes, g, prefix, true})
					from[0], from[1] = g, g
				case sim.EvFinishEnd:
					marks = append(marks, mark{finishes, g, prefix, false})
					settle(&t.TTotal, 0)
					finishes++
				case sim.EvMainPause:
					settle(&t.TMain, 1)
				case sim.EvMainResume:
					from[1] = g
				case sim.EvHandlerStart:
					canon, msgs := sim.ActorIDCanon(ev.Arg)
					a := actors[canon]
					if a == nil {
						a = &actorAgg{pe: make([]actorPE, n)}
						actors[canon] = a
					}
					at := &a.pe[pe]
					if at.cnt == 0 {
						at.first, at.fg = prefix, g
					}
					at.last, at.lg = prefix, g
					at.cnt++
					a.count++
					a.msgs += msgs
					from[2] = g
				case sim.EvHandlerEnd:
					if a := actors[st.handler]; a != nil {
						a.cycles += prefix - st.hstart
						settle(&a.cycles, 2)
					}
					if st.profiling {
						settle(&t.TProc, 2)
					}
				}
				st.marker(ev.Kind, ev.Arg, prefix)
			}
		}
		gsum[row+g] = prefix
		t.TTotal, t.TMain, t.TProc = st.t.TTotal, st.t.TMain, st.t.TProc
	}

	// Generation release clocks and winners. The winner is the PE whose
	// charges fill the whole generation interval [M[g], M[g+1]]; every
	// other PE finished earlier and waited at the barrier. Ties go to
	// the lowest rank, deterministically.
	M := make([]int64, gens+1)
	winner := make([]int, gens)
	for g := 0; g < gens; g++ {
		var mx int64
		w := 0
		for pe := 0; pe < n; pe++ {
			if sum := gsum[pe*gens+g]; sum > mx {
				mx, w = sum, pe
			}
		}
		M[g+1] = M[g] + mx
		winner[g] = w
	}
	for _, o := range owed {
		*o.t += M[o.to] - M[o.from]
	}
	for pe := range totals.PerPE {
		t := &totals.PerPE[pe]
		t.TComm = t.TTotal - t.TMain - t.TProc
	}
	totals.Makespan = M[gens]
	var winStart, winEnd []int64
	for _, m := range marks {
		for len(winStart) <= m.finish {
			winStart = append(winStart, -1)
			winEnd = append(winEnd, -1)
		}
		switch now := M[m.g] + m.prefix; {
		case m.start && (winStart[m.finish] < 0 || now < winStart[m.finish]):
			winStart[m.finish] = now
		case !m.start && now > winEnd[m.finish]:
			winEnd[m.finish] = now
		}
	}

	an := &Analysis{Cost: p.Cost, Totals: totals}

	// Finish windows and their critical paths.
	for i := range winStart {
		if winStart[i] < 0 || winEnd[i] < 0 {
			continue
		}
		w := Window{Index: i, Start: winStart[i], End: winEnd[i], Span: winEnd[i] - winStart[i]}
		w.Path = criticalPath(s, p, M, winner, bd, gst, blk, w.Start, w.End)
		an.Windows = append(an.Windows, w)
	}

	// Bottleneck ranking.
	for id, a := range actors {
		b := Bottleneck{
			Actor:       id,
			Label:       actorLabel(id),
			Activations: a.count,
			Messages:    a.msgs,
			TotalCycles: a.cycles,
		}
		if a.msgs > 0 {
			b.AvgCycles = float64(a.cycles) / float64(a.msgs)
		}
		var spanSum, gaps int64
		for _, at := range a.pe {
			if at.cnt >= 2 {
				spanSum += M[at.lg] + at.last - M[at.fg] - at.first
				gaps += at.cnt - 1
			}
		}
		if gaps > 0 {
			b.AvgInterval = float64(spanSum) / float64(gaps)
		}
		if b.AvgInterval > 0 && a.count > 0 {
			// Busy fraction: per-activation duration over activation
			// spacing (per-message AvgCycles would understate long runs).
			b.Score = float64(a.cycles) / float64(a.count) / b.AvgInterval
		}
		an.Bottlenecks = append(an.Bottlenecks, b)
	}
	sort.Slice(an.Bottlenecks, func(i, j int) bool {
		a, b := an.Bottlenecks[i], an.Bottlenecks[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.TotalCycles != b.TotalCycles {
			return a.TotalCycles > b.TotalCycles
		}
		return a.Actor < b.Actor
	})
	return an
}

// criticalPath assembles the window's edge chain from the generation
// winners. Whole generations inside the window reuse the pass-B
// accumulated breakdowns; the first generation is usually entered
// mid-way (the window starts at a finish marker, not a barrier), so its
// winner is re-walked and clipped at the window start. Consecutive
// generations won by the same PE merge into one edge.
func criticalPath(s *sim.Schedule, p Perturbation, M []int64, winner []int, bd []Breakdown, gst []attrib, blk *sim.Block, start, end int64) CriticalPath {
	cp := CriticalPath{Span: end - start}
	gens := len(winner)
	for g := 0; g < len(winner); g++ {
		if M[g+1] <= start || M[g] >= end {
			continue
		}
		es, ee := M[g], M[g+1]
		if es < start {
			es = start
		}
		if ee > end {
			ee = end
		}
		if ee <= es {
			continue
		}
		var b Breakdown
		if row := winner[g]*gens + g; M[g] >= start && M[g+1] <= end {
			b = bd[row]
		} else {
			b = genBreakdown(s.PEs[winner[g]], p, M[g], gst[row], blk, g, es, ee)
		}
		if k := len(cp.Edges); k > 0 && cp.Edges[k-1].PE == winner[g] && cp.Edges[k-1].End == es {
			cp.Edges[k-1].End = ee
			cp.Edges[k-1].Breakdown.merge(b)
		} else {
			cp.Edges = append(cp.Edges, PathEdge{PE: winner[g], Gen: g, Start: es, End: ee, Breakdown: b})
		}
	}
	return cp
}

// genBreakdown re-walks generation gen of one PE's log - from its own
// block, in the attribution state st the PE entered it in, its clock at
// m - and attributes the charges that fall inside [from, to), clipping a
// charge that straddles a boundary so the attributed cycles tile the
// interval exactly.
func genBreakdown(l *sim.PELog, p Perturbation, m int64, st attrib, blk *sim.Block, gen int, from, to int64) Breakdown {
	var b Breakdown
	now := m
	c := l.WalkGen(gen, blk)
	for evs := c.Next(); evs != nil; evs = c.Next() {
		for _, ev := range evs {
			switch {
			case ev.Kind == sim.EvBarrier:
				return b
			case ev.Kind.Charged():
				dur := p.charge(ev, &st, l.Skew)
				if lo, hi := max(now, from), min(now+dur, to); hi > lo {
					b.add(ev.Kind, regimeOf(&st), hi-lo)
				}
				now += dur
			default:
				st.marker(ev.Kind, ev.Arg, now)
			}
		}
	}
	return b
}
