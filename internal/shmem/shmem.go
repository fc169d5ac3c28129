// Package shmem implements a simulated OpenSHMEM runtime: the PGAS SPMD
// substrate that the paper's software stack (Conveyors, HClib-Actor,
// ActorProf) is built on.
//
// The simulation runs every processing element (PE) as a goroutine inside
// one process. PEs are grouped into simulated cluster nodes (sim.Machine);
// each PE owns a symmetric heap, and the usual OpenSHMEM operations are
// provided: collective symmetric allocation, blocking and non-blocking
// one-sided puts, gets, quiet/fence, barriers, reductions, and
// shmem_ptr-style direct intra-node access.
//
// Differences from a real OpenSHMEM are intentional and documented:
//
//   - Data movement costs are charged to a per-PE virtual cycle clock
//     (sim.Clock) instead of being borne by real NICs. Inter-node puts pay
//     network latency + per-byte cost; intra-node copies pay a much
//     smaller shared-memory cost. This preserves the relative cost
//     structure the paper's overall-breakdown profile (Figures 12-13)
//     depends on.
//   - Non-blocking puts (PutNBI) are buffered at the initiator and only
//     become visible at the target after Quiet, which is *stricter* than
//     the OpenSHMEM memory model (real NBI puts may land earlier) but is
//     exactly the guarantee correct programs such as Conveyors rely on.
//     Running under the strict model means protocol bugs surface instead
//     of hiding behind eager delivery.
//   - Barriers synchronize the virtual clocks of all participants to the
//     maximum, modelling the BSP property that a synchronization point
//     makes every PE pay for the slowest one.
package shmem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"actorprof/internal/fault"
	"actorprof/internal/sim"
)

// Config describes a simulated SPMD job.
type Config struct {
	// Machine is the PE/node layout. Required.
	Machine sim.Machine
	// Cost is the data-movement cost model. Zero value means
	// sim.DefaultCostModel().
	Cost sim.CostModel
	// Profile, when non-nil, receives per-PE counts of every OpenSHMEM
	// routine invocation - the pshmem-style profiling interface the
	// paper's Section V-B proposes for capturing non-blocking routines.
	Profile *APIProfile
	// Fault, when non-nil, perturbs the run at the runtime's injection
	// hooks (delays, stragglers, capacity shrinks, schedule shaking).
	// See package fault. Nil means every hook is a no-op.
	Fault fault.Injector
	// Schedule, when non-nil, records every clock charge and runtime
	// region marker per PE for the what-if engine (internal/whatif).
	// Create it with sim.NewScheduleRecorder using this config's machine
	// and post-default cost model.
	Schedule *sim.ScheduleRecorder
}

func (c Config) withDefaults() Config {
	if c.Cost == (sim.CostModel{}) {
		c.Cost = sim.DefaultCostModel()
	}
	return c
}

// World is the shared state of one SPMD run: all PE heaps and the
// synchronization structures. A World is created by Run and is only
// valid for the duration of the body functions.
type World struct {
	cfg  Config
	pes  []*PE
	barr *barrier
	coll *collectives

	// shared holds world-wide singletons created by Shared. Higher
	// layers use it for state that in a real job would live in the
	// symmetric heap of a designated PE (e.g. termination boards) but
	// that the simulation keeps as plain shared memory.
	sharedMu sync.Mutex
	shared   map[any]any

	// failed flips when any PE panics or aborts. Barrier waiters are
	// unblocked by barrier poisoning, but PEs spinning in progress loops (conveyor
	// Advance) or asleep at a wait point (WaitIdle: a blocked Send, an
	// idle selector worker, WaitUntil) never reach a barrier; they
	// observe this flag at their Yield preemption point, or on the
	// wake-up fail's RingAll gives every sleeper, and abort instead of
	// waiting on a peer that will never answer.
	failed     atomic.Bool
	failedRank atomic.Int64 // rank of the first crashed PE
}

// Failed reports whether any PE of this world has crashed.
func (w *World) Failed() bool { return w.failed.Load() }

// fail records the first crashed PE, raises the world failure flag and
// wakes every PE asleep at a wait point so it can observe the flag.
func (w *World) fail(rank int) {
	w.failedRank.CompareAndSwap(-1, int64(rank))
	w.failed.Store(true)
	w.RingAll()
}

// peerAbort is the panic value Yield and WaitIdle raise on surviving PEs
// once the world has failed; Run translates it into a secondary error so
// the root-cause panic stays the error Run returns.
type peerAbort struct{ crashed int64 }

// peFailure is the panic value Abort raises: the PE's own error, which
// Run returns as the root cause, without a stack.
type peFailure struct{ err error }

// Abort stops this PE with err and fails the world as a crash does: peers
// waiting at a barrier or spinning in progress abort, and Run returns err.
func (p *PE) Abort(err error) {
	panic(peFailure{err})
}

// abortIfFailed panics with peerAbort once any PE has crashed.
func (p *PE) abortIfFailed() {
	if p.world.failed.Load() {
		panic(peerAbort{crashed: p.world.failedRank.Load()})
	}
}

// Shared returns the world-wide singleton for key, creating it with
// create on first use. Safe for concurrent use by all PEs.
func (w *World) Shared(key any, create func() any) any {
	w.sharedMu.Lock()
	defer w.sharedMu.Unlock()
	if w.shared == nil {
		w.shared = make(map[any]any)
	}
	if v, ok := w.shared[key]; ok {
		return v
	}
	v := create()
	w.shared[key] = v
	return v
}

// NumPEs returns the number of PEs in the world.
func (w *World) NumPEs() int { return w.cfg.Machine.NumPEs }

// Machine returns the machine layout.
func (w *World) Machine() sim.Machine { return w.cfg.Machine }

// Cost returns the cost model in effect.
func (w *World) Cost() sim.CostModel { return w.cfg.Cost }

// PE is the per-processing-element handle passed to the SPMD body. All
// methods must be called from the PE's own goroutine unless documented
// otherwise.
type PE struct {
	world *World
	rank  int
	clock *sim.Clock

	// sched is this PE's schedule log when the run records one (see
	// Config.Schedule); nil otherwise. Only the owning goroutine appends.
	sched *sim.PELog

	// inj is the fault injector (nil for unperturbed runs); faultIdx
	// holds the per-site invocation counters that key deterministic
	// injection decisions. Only the owning goroutine touches them.
	inj      fault.Injector
	faultIdx [fault.NumSites]int64

	// heap is this PE's symmetric heap as the last Malloc left it. Peers
	// load it on every access; only the owner's Malloc stores it.
	heap atomic.Pointer[heapView]

	// bell is what this PE sleeps on when its progress loops are idle;
	// foreign writes into heap ring it (see doorbell.go).
	bell doorbell

	// pendingNBI holds writes issued by PutNBI that have not yet been
	// flushed by Quiet; nbiStage is the arena holding their
	// payloads back to back. quiet rewinds both, so no staging slice
	// outlives it. Only the owning goroutine touches them.
	pendingNBI []pendingWrite
	nbiStage   []byte

	inHandler bool // see SetInHandler; owner-only
}

// pendingWrite is one buffered PutNBI: its payload is
// nbiStage[start:end]. Offsets, not a slice, because the arena may grow
// (and move) while the write is pending.
type pendingWrite struct {
	target, offset int
	start, end     int
}

// Rank returns the PE's global rank (0-based).
func (p *PE) Rank() int { return p.rank }

// NumPEs returns the total number of PEs (shmem_n_pes).
func (p *PE) NumPEs() int { return p.world.NumPEs() }

// Node returns the simulated cluster node hosting this PE.
func (p *PE) Node() int { return p.world.cfg.Machine.NodeOf(p.rank) }

// NodeOf returns the node hosting PE rank r.
func (p *PE) NodeOf(r int) int { return p.world.cfg.Machine.NodeOf(r) }

// SameNode reports whether PE r shares a node with this PE.
func (p *PE) SameNode(r int) bool { return p.world.cfg.Machine.SameNode(p.rank, r) }

// World returns the enclosing world.
func (p *PE) World() *World { return p.world }

// Clock returns the PE's virtual cycle clock.
func (p *PE) Clock() *sim.Clock { return p.clock }

// Charge advances this PE's clock by n cycles. It is used by
// applications to account simulated work that has no cost-model event
// kind; the charge is recorded as a raw-cycle event so replays stay
// exact (but what-if cost perturbations cannot rescale it).
func (p *PE) Charge(n int64) {
	p.clock.Charge(n)
	if p.sched != nil && n > 0 {
		p.sched.Append(sim.EvRaw, n)
	}
}

// ChargeEvent advances this PE's clock by the cost model's price for
// the event and records it in the schedule log when one is attached.
// All runtime-internal charge sites (shmem, conveyor, actor) go through
// here (or ChargeInstr) so a recorded schedule can be re-priced under a
// perturbed cost model.
func (p *PE) ChargeEvent(kind sim.EventKind, arg int64) {
	p.clock.Charge(p.world.cfg.Cost.PriceEvent(kind, arg))
	if p.sched != nil {
		p.sched.Append(kind, arg)
	}
}

// ChargeInstr charges a run of n messages, each retiring ins
// instructions at the pre-priced cycles = Cost().InstructionCost(ins),
// and records it as one event. The clock advances as n separate charges
// would (Clock.ChargeRun), so how deliveries fall into runs never shows
// in simulated time; the what-if engine re-prices the recorded
// sim.InstrRun the same way.
func (p *PE) ChargeInstr(cycles, ins, n int64) {
	p.clock.ChargeRun(cycles, n)
	if p.sched != nil {
		p.sched.Append(sim.EvInstr, sim.InstrRun(ins, n))
	}
}

// RecordEvent appends a zero-cost region marker (barrier, finish
// window, main-timer or handler transition) to the schedule log when
// one is attached. The runtime calls it exactly where the profiling
// state machine transitions fire, so replay reproduces attribution
// bit-for-bit.
func (p *PE) RecordEvent(kind sim.EventKind, arg int64) {
	if p.sched != nil {
		p.sched.Append(kind, arg)
	}
}

// Recording reports whether this run records a what-if schedule.
func (p *PE) Recording() bool { return p.sched != nil }

// Yield cedes the processor to other PE goroutines. Spin loops in the
// runtime call this to keep the simulation live on few OS threads. It is
// a documented preemption point: a fault injector may add extra yields
// here to perturb the goroutine interleaving, and it is where a PE
// observes that a peer has crashed (the world failure flag) and aborts
// instead of spinning forever on a dead partner.
func (p *PE) Yield() {
	p.abortIfFailed()
	if p.inj != nil {
		p.FaultSched(fault.SiteYield)
	}
	p.bell.stats.Yields++
	runtime.Gosched()
}

// Run executes body as an SPMD program: one goroutine per PE, all started
// together, and waits for all of them to return. A panic in any PE is
// captured and returned as an error (after all other PEs finish or panic).
func Run(cfg Config, body func(pe *PE)) error {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return err
	}
	n := cfg.Machine.NumPEs
	w := &World{
		cfg:  cfg,
		pes:  make([]*PE, n),
		barr: newBarrier(n),
		coll: newCollectives(n),
	}
	w.failedRank.Store(-1)
	skewer, _ := cfg.Fault.(fault.ClockSkewer)
	for i := 0; i < n; i++ {
		w.pes[i] = &PE{
			world: w,
			rank:  i,
			clock: sim.NewClock(sim.Virtual),
			inj:   cfg.Fault,
			bell:  doorbell{wake: make(chan struct{}, 1)},
		}
		w.pes[i].heap.Store(&heapView{})
		if skewer != nil {
			w.pes[i].clock.SetSkewPercent(skewer.ClockSkewPercent(i))
		}
		if cfg.Schedule != nil {
			w.pes[i].sched = cfg.Schedule.PE(i)
			w.pes[i].sched.Skew = w.pes[i].clock.SkewPercent()
		}
	}

	errs := make([]error, n)
	secondary := make([]bool, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		pe := w.pes[i]
		go func() {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				switch a := r.(type) {
				case peerAbort:
					// This PE did not crash: it bailed out of a spin loop
					// because PE a.crashed did. Record a secondary error so
					// Run still reports the root cause first.
					errs[pe.rank] = fmt.Errorf("shmem: PE %d aborted: PE %d crashed",
						pe.rank, a.crashed)
					secondary[pe.rank] = true
				case barrierPoisoned:
					errs[pe.rank] = fmt.Errorf("shmem: PE %d aborted: barrier poisoned by a crashed PE",
						pe.rank)
					secondary[pe.rank] = true
				default:
					if f, ok := r.(peFailure); ok {
						errs[pe.rank] = f.err
					} else {
						buf := make([]byte, 16<<10)
						sz := runtime.Stack(buf, false)
						errs[pe.rank] = fmt.Errorf("shmem: PE %d panicked: %v\n%s",
							pe.rank, r, buf[:sz])
					}
					// Unblock the peers: poison the barrier for PEs waiting
					// there, and raise the world failure flag for PEs
					// spinning in progress loops (they observe it in Yield)
					// or asleep at a wait point (fail rings them awake) so
					// all of them fail fast instead of deadlocking.
					w.fail(pe.rank)
					w.barr.poison()
				}
			}()
			body(pe)
			pe.await(collEnd, 0) // a PE's end is a collective too
		}()
	}
	wg.Wait()
	var firstSecondary error
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if !secondary[rank] {
			return err
		}
		if firstSecondary == nil {
			firstSecondary = err
		}
	}
	return firstSecondary
}
