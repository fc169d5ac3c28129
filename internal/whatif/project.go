package whatif

import (
	"fmt"
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
	first  []int64
	last   []int64
	cnt    []int64
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
func project(s *sim.Schedule, p Perturbation) *Analysis {
	n := len(s.PEs)
	barriers := 0
	for _, ev := range s.PEs[0].Events {
		if ev.Kind == sim.EvBarrier {
			barriers++
		}
	}
	gens := barriers + 1

	// Pass A: per-PE, per-generation charge sums under the perturbed
	// pricing (handler state tracked because pricing depends on it).
	gsum := make([][]int64, n)
	for pe := 0; pe < n; pe++ {
		gsum[pe] = make([]int64, gens)
		skew := s.PEs[pe].Skew
		var st attrib
		g := 0
		for _, ev := range s.PEs[pe].Events {
			switch {
			case ev.Kind == sim.EvBarrier:
				g++
			case ev.Kind.Charged():
				gsum[pe][g] += p.charge(ev, &st, skew)
			default:
				st.marker(ev.Kind, ev.Arg, 0)
			}
		}
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
			if gsum[pe][g] > mx {
				mx, w = gsum[pe][g], pe
			}
		}
		M[g+1] = M[g] + mx
		winner[g] = w
	}

	// Pass B: absolute-clock walk. Reconstructs regime totals, finish
	// windows, actor activation statistics, and the winners' full-gen
	// breakdowns for the critical path.
	totals := RunTotals{PerPE: make([]Totals, n), Makespan: M[gens]}
	edgeAcc := make([]Breakdown, gens)
	actors := make(map[int64]*actorAgg)
	var winStart, winEnd []int64
	for pe := 0; pe < n; pe++ {
		skew := s.PEs[pe].Skew
		var st attrib
		g := 0
		var prefix int64
		finishes := 0
		for _, ev := range s.PEs[pe].Events {
			if ev.Kind == sim.EvBarrier {
				g++
				prefix = 0
				continue
			}
			now := M[g] + prefix
			if ev.Kind.Charged() {
				dur := p.charge(ev, &st, skew)
				if pe == winner[g] {
					edgeAcc[g].add(ev.Kind, regimeOf(&st), dur)
				}
				prefix += dur
				continue
			}
			switch ev.Kind {
			case sim.EvFinishStart:
				for len(winStart) <= finishes {
					winStart = append(winStart, -1)
					winEnd = append(winEnd, -1)
				}
				if winStart[finishes] < 0 || now < winStart[finishes] {
					winStart[finishes] = now
				}
			case sim.EvFinishEnd:
				if now > winEnd[finishes] {
					winEnd[finishes] = now
				}
				finishes++
			case sim.EvHandlerStart:
				canon, msgs := sim.ActorIDCanon(ev.Arg)
				a := actors[canon]
				if a == nil {
					a = &actorAgg{first: make([]int64, n), last: make([]int64, n), cnt: make([]int64, n)}
					for i := range a.first {
						a.first[i] = -1
					}
					actors[canon] = a
				}
				if a.first[pe] < 0 {
					a.first[pe] = now
				}
				a.last[pe] = now
				a.cnt[pe]++
				a.count++
				a.msgs += msgs
			case sim.EvHandlerEnd:
				if a := actors[st.handler]; a != nil {
					a.cycles += now - st.hstart
				}
			}
			st.marker(ev.Kind, ev.Arg, now)
		}
		totals.PerPE[pe] = st.finish()
	}

	an := &Analysis{Cost: p.Cost, Totals: totals}

	// Finish windows and their critical paths.
	for i := range winStart {
		if winStart[i] < 0 || winEnd[i] < 0 {
			continue
		}
		w := Window{Index: i, Start: winStart[i], End: winEnd[i], Span: winEnd[i] - winStart[i]}
		w.Path = criticalPath(s, p, M, winner, edgeAcc, w.Start, w.End)
		an.Windows = append(an.Windows, w)
	}

	// Bottleneck ranking.
	for id, a := range actors {
		ord, mb := sim.ActorIDParts(id)
		b := Bottleneck{
			Actor:       id,
			Label:       fmt.Sprintf("s%d/m%d", ord, mb),
			Activations: a.count,
			Messages:    a.msgs,
			TotalCycles: a.cycles,
		}
		if a.msgs > 0 {
			b.AvgCycles = float64(a.cycles) / float64(a.msgs)
		}
		var spanSum, gaps int64
		for pe := 0; pe < n; pe++ {
			if a.cnt[pe] >= 2 {
				spanSum += a.last[pe] - a.first[pe]
				gaps += a.cnt[pe] - 1
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
func criticalPath(s *sim.Schedule, p Perturbation, M []int64, winner []int, edgeAcc []Breakdown, start, end int64) CriticalPath {
	cp := CriticalPath{Span: end - start}
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
		if M[g] >= start && M[g+1] <= end {
			b = edgeAcc[g]
		} else {
			b = genBreakdown(s, p, M, winner[g], g, es, ee)
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

// genBreakdown re-walks one PE's schedule and attributes its
// generation-g charges that fall inside [from, to), clipping a charge
// that straddles a boundary so the attributed cycles tile the interval
// exactly.
func genBreakdown(s *sim.Schedule, p Perturbation, M []int64, pe, gen int, from, to int64) Breakdown {
	skew := s.PEs[pe].Skew
	var st attrib
	var b Breakdown
	g := 0
	var prefix int64
	for _, ev := range s.PEs[pe].Events {
		if ev.Kind == sim.EvBarrier {
			g++
			prefix = 0
			if g > gen {
				break
			}
			continue
		}
		now := M[g] + prefix
		if ev.Kind.Charged() {
			dur := p.charge(ev, &st, skew)
			if g == gen {
				lo, hi := now, now+dur
				if lo < from {
					lo = from
				}
				if hi > to {
					hi = to
				}
				if hi > lo {
					b.add(ev.Kind, regimeOf(&st), hi-lo)
				}
			}
			prefix += dur
			continue
		}
		st.marker(ev.Kind, ev.Arg, now)
	}
	return b
}
