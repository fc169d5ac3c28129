package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"actorprof/internal/blocks"
)

// This file defines the recorded-schedule model behind the causal
// what-if profiler (internal/whatif): a per-PE log of every clock
// charge and every runtime region transition, captured while a run
// executes.
//
// Why record instead of re-running: Virtual-mode clock *arithmetic* is
// deterministic, but the event sequence of a fresh execution is not -
// the conveyor endgame can ship one extra partially-filled buffer when
// the goroutine interleaving differs, which perturbs total charge
// counts between otherwise identical runs. A recorded schedule pins the
// interleaving, and because no runtime code path branches on clock
// values (poll charges are explicitly excluded from the cost model for
// exactly this reason), re-pricing the recorded event sequence under a
// different CostModel yields precisely what a re-execution with the
// same interleaving would have measured. That is the exactness
// guarantee the what-if engine's differential tests pin.
//
// Every charge site in shmem/conveyor/actor funnels through
// PE.ChargeEvent / PE.ChargeInstr, which price via CostModel.PriceEvent
// and Clock.ChargeRun - the same functions the replay engine uses - so
// recorded charging and replayed charging cannot drift apart.

// EventKind classifies one recorded schedule event. Kinds at or below
// EvRaw carry a clock charge (priced by CostModel.PriceEvent); the
// kinds after it are zero-cost region markers consumed by the
// T_MAIN/T_COMM/T_PROC attribution state machine.
type EventKind uint8

const (
	// EvNetworkPut is an inter-node transfer; Arg is the payload bytes.
	EvNetworkPut EventKind = iota
	// EvLocalCopy is an intra-node copy; Arg is the payload bytes.
	EvLocalCopy
	// EvQuiet is a flushing shmem_quiet; Arg is the number of completed
	// non-blocking puts (the price does not depend on it).
	EvQuiet
	// EvInstr is simulated instruction retirement; Arg is the
	// instruction count, or an InstrRun of n messages' worth of it.
	EvInstr
	// EvIngest is conveyor item ingestion; Arg is the item count.
	EvIngest
	// EvDelay is a fault-injected stall; Arg is raw cycles.
	EvDelay
	// EvRaw is an application-level direct Charge; Arg is raw cycles.
	EvRaw

	// EvBarrier marks a shmem_barrier_all arrival (after its implied
	// quiet). The k-th barrier event on every PE belongs to the same
	// global generation - all barriers are all-PE collectives - so the
	// replay engine synchronizes clocks to the generation maximum here.
	EvBarrier
	// EvFinishStart/EvFinishEnd bracket one instrumented Finish scope
	// (the T_TOTAL window).
	EvFinishStart
	EvFinishEnd
	// EvMainPause/EvMainResume are the MAIN-timer transitions around
	// runtime-internal sections.
	EvMainPause
	EvMainResume
	// EvHandlerStart/EvHandlerEnd bracket one outermost message-handler
	// execution: one delivered run of messages. Arg is the actor ID
	// (selector ordinal << 8 | mailbox) with the run's message count
	// packed into bits 32+ (0 means one message); split it with
	// ActorIDCanon.
	EvHandlerStart
	EvHandlerEnd

	// NumEventKinds bounds the enum.
	NumEventKinds
)

// Charged reports whether the kind carries a clock charge.
func (k EventKind) Charged() bool { return k <= EvRaw }

// String implements fmt.Stringer.
func (k EventKind) String() string {
	names := [...]string{
		"network_put", "local_copy", "quiet", "instr", "ingest", "delay", "raw",
		"barrier", "finish_start", "finish_end", "main_pause", "main_resume",
		"handler_start", "handler_end",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// PriceEvent is the canonical event-to-cycles mapping: the single
// pricing function shared by record-time charging (PE.ChargeEvent) and
// the what-if replay/projection engines. Marker kinds price to zero, an
// instruction run to one of its messages (charged InstrRunParts' n times).
func (c CostModel) PriceEvent(kind EventKind, arg int64) int64 {
	switch kind {
	case EvNetworkPut:
		return c.NetworkTransferCost(int(arg))
	case EvLocalCopy:
		return c.LocalTransferCost(int(arg))
	case EvQuiet:
		return c.QuietLatency
	case EvInstr:
		return c.InstructionCost(arg & actorIDMask)
	case EvIngest:
		return arg * c.ItemIngestCycles
	case EvDelay, EvRaw:
		return arg
	default:
		return 0
	}
}

// Validate checks the cost model for the degenerate shapes that
// silently poison profiles and what-if projections: negative charges,
// the all-zero model (free everything - almost always a forgotten
// DefaultCostModel), and a free network (no latency and no per-byte
// cost, which collapses the COMM regime the paper's figures are
// about). It mirrors Machine.Validate; core and whatif entry points
// call it instead of running with a degenerate model.
func (c CostModel) Validate() error {
	if c == (CostModel{}) {
		return fmt.Errorf("sim: zero-value CostModel (every operation free); use sim.DefaultCostModel() or leave the option unset")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"NetworkLatency", c.NetworkLatency},
		{"NetworkPerByte", c.NetworkPerByte},
		{"QuietLatency", c.QuietLatency},
		{"SignalLatency", c.SignalLatency},
		{"LocalCopyLatency", c.LocalCopyLatency},
		{"LocalCopyPerByte", c.LocalCopyPerByte},
		{"InstructionCycles", c.InstructionCycles},
		{"InstructionScale", c.InstructionScale},
		{"PollCycles", c.PollCycles},
		{"ItemIngestCycles", c.ItemIngestCycles},
	} {
		if f.v < 0 {
			return fmt.Errorf("sim: CostModel.%s must be non-negative, got %d", f.name, f.v)
		}
	}
	if c.NetworkLatency == 0 && c.NetworkPerByte == 0 {
		return fmt.Errorf("sim: CostModel has a free network (NetworkLatency and NetworkPerByte both zero); inter-node transfers would cost nothing")
	}
	if c.InstructionCycles > 0 && c.InstructionScale <= 0 {
		return fmt.Errorf("sim: CostModel.InstructionScale must be positive when InstructionCycles is set, got %d", c.InstructionScale)
	}
	return nil
}

// Event is one recorded schedule entry. Charged kinds are re-priced by
// the what-if engine; marker kinds drive its attribution state machine.
type Event struct {
	Kind EventKind
	Arg  int64
}

// MarshalJSON encodes the event compactly as a [kind, arg] pair; a
// schedule holds an event per charge or run of instruction charges, so
// the long form would bloat schedule.json severalfold.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]int64{int64(e.Kind), e.Arg})
}

// UnmarshalJSON decodes the [kind, arg] pair form.
func (e *Event) UnmarshalJSON(data []byte) error {
	var pair []int64
	if err := json.Unmarshal(data, &pair); err != nil {
		return err
	}
	if len(pair) != 2 {
		return fmt.Errorf("sim: schedule event must be a [kind, arg] pair, got %d elements", len(pair))
	}
	if pair[0] < 0 || pair[0] >= int64(NumEventKinds) {
		return fmt.Errorf("sim: schedule event kind %d out of range", pair[0])
	}
	e.Kind, e.Arg = EventKind(pair[0]), pair[1]
	return nil
}

// PELog is one PE's recorded event sequence. Only the owning PE's
// goroutine appends during the run; the log is read-only afterwards.
type PELog struct {
	// Skew is the PE's charge-inflation percent (fault-injected slow
	// PE); replay applies the same SkewCharge arithmetic.
	Skew int64 `json:"skew,omitempty"`
	// Events is the ordered per-PE schedule. Appended events reach it
	// when the log is sealed (ScheduleRecorder.Schedule); a log built as
	// a literal or decoded from schedule.json is sealed from the start.
	Events []Event `json:"events"`

	// pending holds the events appended since the last seal, each
	// written once into a PE-private block (DESIGN.md §8).
	pending blocks.Buf[Event]
}

// Append records one event. An EvInstr that follows an EvInstr of the
// same per-message instruction count extends it into one InstrRun, priced
// everywhere as its messages one by one; any other event ends the run.
func (l *PELog) Append(kind EventKind, arg int64) {
	if last := l.pending.Last(); kind == EvInstr && last != nil && last.Kind == EvInstr && last.Arg >= 0 && arg >= 0 {
		ins, n := InstrRunParts(last.Arg)
		if more, m := InstrRunParts(arg); more == ins && n+m <= math.MaxInt32 {
			last.Arg = (n+m)<<32 | ins // InstrRun(ins, n+m), its bounds just checked
			return
		}
	}
	l.pending.Push(Event{Kind: kind, Arg: arg})
}

// seal moves the appended events behind Events: one exact-size copy for
// a log that is sealed once, as a recorded run's is. Idempotent.
func (l *PELog) seal() {
	if l.Events == nil {
		l.Events = l.pending.Flatten()
		return
	}
	l.Events = append(l.Events, l.pending.Flatten()...)
}

// each calls f on every run of the log's events in order, sealed or not.
func (l *PELog) each(f func([]Event)) {
	if len(l.Events) > 0 {
		f(l.Events)
	}
	l.pending.Each(f)
}

// Schedule is a full recorded run: the machine shape, the cost model
// the run was priced with, and every PE's event log. It is the input to
// the what-if engine and the payload of a trace directory's
// schedule.json.
type Schedule struct {
	Machine Machine    `json:"machine"`
	Timing  TimingMode `json:"timing"`
	Cost    CostModel  `json:"cost"`
	PEs     []*PELog   `json:"pes"`
}

// Validate checks internal consistency: machine/log agreement, a
// priceable cost model, no negative charge, and equal barrier counts
// across PEs (every barrier is an all-PE collective, so a completed run
// cannot record anything else; replay synchronization depends on it).
func (s *Schedule) Validate() error {
	if err := s.Machine.Validate(); err != nil {
		return err
	}
	if err := s.Cost.Validate(); err != nil {
		return err
	}
	if len(s.PEs) != s.Machine.NumPEs {
		return fmt.Errorf("sim: schedule has %d PE logs for a %d-PE machine", len(s.PEs), s.Machine.NumPEs)
	}
	want := -1
	for rank, l := range s.PEs {
		if l == nil {
			return fmt.Errorf("sim: schedule PE %d log is nil", rank)
		}
		if l.Skew < 0 {
			return fmt.Errorf("sim: schedule PE %d has negative skew %d", rank, l.Skew)
		}
		n, at := 0, 0
		var bad error
		l.each(func(evs []Event) {
			for i, e := range evs {
				if e.Kind >= NumEventKinds && bad == nil {
					bad = fmt.Errorf("sim: schedule PE %d has unknown event kind %d", rank, e.Kind)
				}
				// Replay's clock would ignore what Project's sum subtracts.
				if e.Kind.Charged() && e.Arg < 0 && bad == nil {
					bad = fmt.Errorf("sim: schedule PE %d event %d is a negative charge: %s %d", rank, at+i, e.Kind, e.Arg)
				}
				if e.Kind == EvBarrier {
					n++
				}
			}
			at += len(evs)
		})
		if bad != nil {
			return bad
		}
		if want < 0 {
			want = n
		} else if n != want {
			return fmt.Errorf("sim: schedule PE %d recorded %d barriers, PE 0 recorded %d (incomplete run?)", rank, n, want)
		}
	}
	return nil
}

// Events returns the number of log entries across all PEs: an InstrRun
// counts once, however many charges it stands for.
func (s *Schedule) Events() int {
	n := 0
	for _, l := range s.PEs {
		n += len(l.Events) + l.pending.Len()
	}
	return n
}

// ScheduleRecorder captures a Schedule during a run. Create one with
// NewScheduleRecorder, hand it to shmem.Config.Schedule, and read the
// result with Schedule() after shmem.Run returns. Each PE appends to
// its own log from its own goroutine; there is no cross-PE state.
type ScheduleRecorder struct {
	s Schedule
}

// NewScheduleRecorder creates a recorder for the given run shape. The
// cost model must be the one the run actually charges with (shmem's
// post-default model), since it is the baseline the what-if engine
// re-prices against.
func NewScheduleRecorder(m Machine, timing TimingMode, cost CostModel) *ScheduleRecorder {
	r := &ScheduleRecorder{s: Schedule{Machine: m, Timing: timing, Cost: cost}}
	r.s.PEs = make([]*PELog, m.NumPEs)
	for i := range r.s.PEs {
		r.s.PEs[i] = &PELog{}
	}
	return r
}

// PE returns rank's log for the run to append into.
func (r *ScheduleRecorder) PE(rank int) *PELog { return r.s.PEs[rank] }

// Schedule returns the recorded schedule. Call only after the run has
// completed (shmem.Run returned): this is where every PE's log is
// sealed, so that PELog.Events is complete for the what-if engines and
// schedule.json. Calling it again returns the same schedule.
func (r *ScheduleRecorder) Schedule() *Schedule {
	var wg sync.WaitGroup
	for _, l := range r.s.PEs {
		if l.pending.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(l *PELog) {
			defer wg.Done()
			l.seal()
		}(l)
	}
	wg.Wait()
	return &r.s
}

// ActorID packs a selector creation ordinal and mailbox index into the
// actor identifier carried by handler markers. Selectors are created
// collectively in the same order on every PE, so the same ID names the
// same logical actor everywhere.
func ActorID(ord, mb int) int64 { return int64(ord)<<8 | int64(mb&0xff) }

// MaxMailboxes is how many mailboxes of one selector ActorID keeps apart.
const MaxMailboxes = 1 << 8

// ActorIDParts splits an actor ID into its selector ordinal and mailbox.
// A batch count packed in the high bits (BatchActorID) is ignored, so
// marker arguments can be passed directly.
func ActorIDParts(id int64) (ord, mb int) {
	id &= actorIDMask
	return int(id >> 8), int(id & 0xff)
}

// actorIDMask covers the canonical ActorID bits; BatchActorID packs the
// message count above it, as InstrRun does above the instruction count.
const actorIDMask = int64(1)<<32 - 1

// InstrRun is the EvInstr argument for n messages of ins instructions
// each, priced as n separate retirements of ins, so that batch
// boundaries stay invisible to the clock. A run of one is the plain
// count. A count that does not fit its field panics rather than wraps.
func InstrRun(ins, n int64) int64 {
	if ins < 0 || ins > actorIDMask || n < 1 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sim: a run of %d x %d instructions does not fit one schedule event", n, ins))
	}
	if n == 1 {
		return ins
	}
	return n<<32 | ins
}

// InstrRunParts splits an EvInstr argument into the per-message
// instruction count and the run length.
func InstrRunParts(arg int64) (ins, n int64) { return ActorIDCanon(arg) }

// BatchActorID packs an actor ID together with the number of messages
// the bracketed run delivered. n <= 1 yields the plain ActorID.
func BatchActorID(ord, mb, n int) int64 {
	id := ActorID(ord, mb)
	if n > 1 {
		id |= int64(n) << 32
	}
	return id
}

// ActorIDCanon splits a handler-marker argument into the canonical actor
// ID (as produced by ActorID) and the message count the bracketed
// activation delivered (1 when none is packed). Everything keyed by
// actor — bottleneck aggregation, HandlerSpeedup factors — must key by
// the canonical ID.
func ActorIDCanon(id int64) (canon, msgs int64) {
	msgs = id >> 32
	if msgs <= 0 {
		msgs = 1
	}
	return id & actorIDMask, msgs
}

// SkewCharge applies the slow-PE charge inflation: n plus pct percent,
// in the exact integer arithmetic Clock.Charge uses (and the what-if
// projection must reproduce). Non-positive pct is the identity.
func SkewCharge(n, pct int64) int64 {
	if pct > 0 {
		n += n * pct / 100
	}
	return n
}
