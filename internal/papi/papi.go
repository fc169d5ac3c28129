// Package papi simulates the Performance Application Programming
// Interface (PAPI) hardware-performance-counter library that ActorProf
// uses for its region-specific HWPC profiling.
//
// Real PAPI reads CPU performance-monitoring units; a portable pure-Go
// process has no such access, so this package substitutes a deterministic
// cost-model engine: the simulated runtime (actor sends, message
// handlers) and instrumented applications report abstract work (retired
// instructions, load/store instructions, cache misses, ...) and the
// engine accumulates it into per-PE counters. Event sets then provide the
// PAPI_start/PAPI_stop region-delta semantics the paper describes,
// including PAPI's limit of four concurrently recorded events
// (Section III-A: "ActorProf only allows up to four concurrent recording
// events with the limitation from PAPI").
//
// The substitution preserves the paper's analytical use of the counters:
// Figure 10/11's inference - PE0's PAPI_TOT_INS imbalance tracks its
// send/recv imbalance - is a property of how much user-region work each
// PE performs, which the cost model attributes identically.
package papi

import "fmt"

// Event identifies a simulated PAPI preset event.
type Event int

// Simulated PAPI preset events. The subset mirrors the presets the paper
// discusses: total/retired instructions, load-stores, data/instruction
// cache behaviour, branch prediction, prefetch, and vector instructions.
const (
	TOT_INS Event = iota // PAPI_TOT_INS: instructions completed
	LST_INS              // PAPI_LST_INS: load/store instructions
	L1_DCM               // PAPI_L1_DCM: level-1 data cache misses
	L2_DCM               // PAPI_L2_DCM: level-2 data cache misses
	TLB_DM               // PAPI_TLB_DM: data TLB misses
	BR_MSP               // PAPI_BR_MSP: mispredicted branches
	PRF_DM               // PAPI_PRF_DM: data prefetch cache misses
	VEC_INS              // PAPI_VEC_INS: vector/SIMD instructions
	TOT_CYC              // PAPI_TOT_CYC: total cycles
	numEvents
)

// NumEvents is the number of defined preset events.
const NumEvents = int(numEvents)

// MaxConcurrentEvents is PAPI's limit on simultaneously recorded events
// that the paper calls out; EventSet enforces it.
const MaxConcurrentEvents = 4

var eventNames = [...]string{
	TOT_INS: "PAPI_TOT_INS",
	LST_INS: "PAPI_LST_INS",
	L1_DCM:  "PAPI_L1_DCM",
	L2_DCM:  "PAPI_L2_DCM",
	TLB_DM:  "PAPI_TLB_DM",
	BR_MSP:  "PAPI_BR_MSP",
	PRF_DM:  "PAPI_PRF_DM",
	VEC_INS: "PAPI_VEC_INS",
	TOT_CYC: "PAPI_TOT_CYC",
}

// String returns the PAPI preset name (e.g. "PAPI_TOT_INS").
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("Event(%d)", int(e))
	}
	return eventNames[e]
}

// EventByName resolves a PAPI preset name to its Event.
func EventByName(name string) (Event, error) {
	for i, n := range eventNames {
		if n == name {
			return Event(i), nil
		}
	}
	return 0, fmt.Errorf("papi: unknown event %q", name)
}

// Work describes a bundle of abstract machine work charged to the
// counters. The fields map one-to-one onto events.
type Work struct {
	Ins    int64 // instructions completed
	LstIns int64 // load/store instructions
	L1DCM  int64 // L1 data cache misses
	L2DCM  int64 // L2 data cache misses
	TLBDM  int64 // data TLB misses
	BrMsp  int64 // mispredicted branches
	PrfDM  int64 // data prefetch misses
	VecIns int64 // vector instructions
	Cyc    int64 // cycles
}

// Add returns the element-wise sum of two work bundles.
func (w Work) Add(o Work) Work {
	return Work{
		Ins: w.Ins + o.Ins, LstIns: w.LstIns + o.LstIns,
		L1DCM: w.L1DCM + o.L1DCM, L2DCM: w.L2DCM + o.L2DCM,
		TLBDM: w.TLBDM + o.TLBDM, BrMsp: w.BrMsp + o.BrMsp,
		PrfDM: w.PrfDM + o.PrfDM, VecIns: w.VecIns + o.VecIns,
		Cyc: w.Cyc + o.Cyc,
	}
}

// Scale returns the bundle multiplied by n.
func (w Work) Scale(n int64) Work {
	return Work{
		Ins: w.Ins * n, LstIns: w.LstIns * n,
		L1DCM: w.L1DCM * n, L2DCM: w.L2DCM * n,
		TLBDM: w.TLBDM * n, BrMsp: w.BrMsp * n,
		PrfDM: w.PrfDM * n, VecIns: w.VecIns * n,
		Cyc: w.Cyc * n,
	}
}

// Engine is a per-PE counter bank. It is not safe for concurrent use;
// bind one Engine to one PE goroutine, like a per-core PMU.
type Engine struct {
	counts [NumEvents]int64
}

// NewEngine returns a zeroed counter bank.
func NewEngine() *Engine { return &Engine{} }

// Tally charges a work bundle to the counters. It takes the bundle where
// the caller has it: passed by value, the 72 bytes are copied to a second
// stack slot with 16-byte loads of what was just written with 8-byte
// stores, a failed store-to-load forward that cost more than the nine adds
// (DESIGN.md §8).
func (e *Engine) Tally(w *Work) {
	e.counts[TOT_INS] += w.Ins
	e.counts[LST_INS] += w.LstIns
	e.counts[L1_DCM] += w.L1DCM
	e.counts[L2_DCM] += w.L2DCM
	e.counts[TLB_DM] += w.TLBDM
	e.counts[BR_MSP] += w.BrMsp
	e.counts[PRF_DM] += w.PrfDM
	e.counts[VEC_INS] += w.VecIns
	e.counts[TOT_CYC] += w.Cyc
}

// Add charges n to a single event counter.
func (e *Engine) Add(ev Event, n int64) {
	if ev < 0 || int(ev) >= NumEvents {
		panic(fmt.Sprintf("papi: invalid event %d", int(ev)))
	}
	e.counts[ev] += n
}

// Read returns the free-running value of one counter.
func (e *Engine) Read(ev Event) int64 {
	if ev < 0 || int(ev) >= NumEvents {
		panic(fmt.Sprintf("papi: invalid event %d", int(ev)))
	}
	return e.counts[ev]
}

// EventSet records deltas of up to MaxConcurrentEvents counters over
// Start/Stop regions, the PAPI_start/PAPI_stop pattern ActorProf places
// around the MAIN and PROC segments.
type EventSet struct {
	engine  *Engine
	events  []Event
	base    []int64
	running bool
}

// NewEventSet builds an event set over the engine. It fails when more
// than MaxConcurrentEvents events are requested (PAPI's limit) or when an
// event is duplicated or invalid.
func NewEventSet(engine *Engine, events ...Event) (*EventSet, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("papi: event set needs at least one event")
	}
	if len(events) > MaxConcurrentEvents {
		return nil, fmt.Errorf("papi: %d events requested; PAPI allows at most %d concurrent events",
			len(events), MaxConcurrentEvents)
	}
	seen := map[Event]bool{}
	for _, ev := range events {
		if ev < 0 || int(ev) >= NumEvents {
			return nil, fmt.Errorf("papi: invalid event %d", int(ev))
		}
		if seen[ev] {
			return nil, fmt.Errorf("papi: duplicate event %v", ev)
		}
		seen[ev] = true
	}
	return &EventSet{
		engine: engine,
		events: append([]Event(nil), events...),
		base:   make([]int64, len(events)),
	}, nil
}

// Events returns the events recorded by this set, in order.
func (s *EventSet) Events() []Event { return append([]Event(nil), s.events...) }

// Start begins a recording region (PAPI_start). Starting a running set
// is an error in PAPI and panics here.
func (s *EventSet) Start() {
	if s.running {
		panic("papi: Start on a running event set")
	}
	for i, ev := range s.events {
		s.base[i] = s.engine.Read(ev)
	}
	s.running = true
}

// Stop ends the region (PAPI_stop) and returns the per-event deltas in
// the order the events were registered.
func (s *EventSet) Stop() []int64 {
	out := make([]int64, len(s.events))
	s.StopInto(out)
	return out
}

// StopInto is Stop writing the deltas into dst, which must hold one
// value per registered event. It allocates nothing: the trace collector
// calls it once per PAPI record.
func (s *EventSet) StopInto(dst []int64) {
	if !s.running {
		panic("papi: Stop on a stopped event set")
	}
	s.PeekInto(dst)
	s.running = false
}

// Peek returns the running deltas without stopping (PAPI_read).
func (s *EventSet) Peek() []int64 {
	out := make([]int64, len(s.events))
	s.PeekInto(out)
	return out
}

// PeekInto is Peek writing the deltas into dst, which must hold one
// value per registered event.
func (s *EventSet) PeekInto(dst []int64) {
	if !s.running {
		panic("papi: Peek on a stopped event set")
	}
	if len(dst) != len(s.events) {
		panic(fmt.Sprintf("papi: buffer holds %d values for %d events", len(dst), len(s.events)))
	}
	for i, ev := range s.events {
		dst[i] = s.engine.Read(ev) - s.base[i]
	}
}

// Exclude runs fn and leaves the counts it charges out of the running
// region: the next Peek or Stop reads what was charged before and after
// fn, as if fn had not run. fn must not stop, start or Exclude on the
// set. On a stopped set, fn simply runs.
func (s *EventSet) Exclude(fn func()) {
	if !s.running {
		fn()
		return
	}
	var before [MaxConcurrentEvents]int64
	for i, ev := range s.events {
		before[i] = s.engine.Read(ev)
	}
	fn()
	for i, ev := range s.events {
		s.base[i] += s.engine.Read(ev) - before[i]
	}
}

// Running reports whether the set is currently recording.
func (s *EventSet) Running() bool { return s.running }
