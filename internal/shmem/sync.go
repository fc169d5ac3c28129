package shmem

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"actorprof/internal/fault"
	"actorprof/internal/sim"
)

// barrierPoisoned is the panic value await raises on PEs blocked in (or
// arriving at) a poisoned barrier; Run translates it into a secondary
// error behind the crashed PE's own.
type barrierPoisoned struct{}

// collective is what a PE arrives at a barrier generation with: the
// collective call that brought it there, or the end of its body.
type collective uint8

const (
	collBarrier collective = iota + 1
	collAllReduce
	collMalloc
	collEnd
)

var collectiveNames = [...]string{"", "Barrier", "AllReduceInt64", "Malloc", "End"}

func (k collective) String() string { return collectiveNames[k] }

// barrier is a reusable sense-reversing barrier over n participants, with
// panic poisoning so a crashed PE does not deadlock its peers. Every
// generation is one collective of one kind (DESIGN.md §5).
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	gen      uint64
	poisoned bool
	// blocked counts the PEs only a peer can wake: asleep in WaitIdle,
	// or waiting in a generation (returned ones too). It sits beside mu
	// because every barrier waiter adds to it (DESIGN.md §16).
	blocked atomic.Int64
	// kind is the current generation's collective, set by its first
	// arriver; at holds each arrived PE's, 0 for the others.
	kind collective
	at   []collective
	// maxClock accumulates the maximum virtual clock of the arrivers in
	// the current generation so that release can synchronize everyone.
	maxClock int64
	// releaseClock holds the synchronized clock value of the most
	// recently completed generation. It is read under mu by goroutines
	// woken from that generation.
	releaseClock int64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n, at: make([]collective, n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks PE p in the current barrier generation, arriving as
// collective k, until all n PEs have arrived. It returns the maximum
// clock value observed across the arriving PEs in this generation.
// Panics if the barrier has been poisoned by a crashed PE. An arrival
// of another kind than the generation's first fails the run, and so
// does a wait that leaves every PE blocked (DESIGN.md §16).
func (p *PE) await(k collective, clock int64) int64 {
	w, b := p.world, p.world.barr
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		panic(barrierPoisoned{})
	}
	if b.arrived == 0 {
		b.kind = k
	}
	b.at[p.rank] = k
	if k != b.kind {
		b.poisoned = true // later arrivers are secondary; Run's recover wakes the waiters
		panic(peFailure{fmt.Errorf("shmem: %s", w.describe())})
	}
	if clock > b.maxClock {
		b.maxClock = clock
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		// Un-count the n-1 waiters before any of them can block again.
		b.blocked.Add(int64(1 - b.n))
		b.arrived = 0
		clear(b.at)
		b.gen++
		max := b.maxClock
		b.maxClock = 0
		// Stash the release clock where waiters of this generation can
		// read it before a new generation overwrites anything.
		b.releaseClock = max
		b.cond.Broadcast()
		return max
	}
	if b.blocked.Add(1) == int64(b.n) {
		p.deadlock()
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	if b.poisoned {
		panic(barrierPoisoned{})
	}
	return b.releaseClock
}

func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// deadlock fails the run from the PE whose block left every PE blocked:
// no PE is left to wake another. The caller holds barr.mu.
func (p *PE) deadlock() {
	p.abortIfFailed() // a crash poisons and rings; its error comes first
	panic(peFailure{fmt.Errorf("shmem: deadlock, every PE is blocked; %s", p.world.describe())})
}

// describe names the open collective and says what each PE is doing,
// runs of ranks in one state merged: "collective #3: PE 0 in Malloc,
// PEs 1-7 in Barrier". The caller holds barr.mu.
func (w *World) describe() string {
	b := w.barr
	state := func(r int) string {
		switch k := b.at[r]; {
		case k == 0 && w.pes[r].bell.asleep.Load() == sleeping:
			return "asleep"
		case k == 0:
			return "running"
		case k == collEnd:
			return "returned"
		default:
			return "in " + k.String()
		}
	}
	var runs []string
	for r := 0; r < len(w.pes); r++ {
		first, st := r, state(r)
		for r+1 < len(w.pes) && state(r+1) == st {
			r++
		}
		pes := fmt.Sprint("PE ", r)
		if r > first {
			pes = fmt.Sprintf("PEs %d-%d", first, r)
		}
		runs = append(runs, pes+" "+st)
	}
	return fmt.Sprintf("collective #%d: %s", b.gen+1, strings.Join(runs, ", "))
}

// MayBlock panics inside a message handler: call waits for peers, and a
// handler runs inside the progress those peers may be waiting on.
func (p *PE) MayBlock(call string) {
	if p.inHandler {
		panic(fmt.Sprintf("shmem: PE %d called %s inside a message handler", p.rank, call))
	}
}

// SetInHandler marks whether this PE runs a message handler (the actor
// runtime sets it around the outermost one). While it is set, Barrier,
// AllReduceInt64, Malloc, the wait-untils and Runtime.Finish panic.
func (p *PE) SetInHandler(in bool) { p.inHandler = in }

// Barrier performs shmem_barrier_all: every PE blocks until all PEs
// arrive. On release all virtual clocks are advanced to the maximum
// arriving clock - the BSP "everyone pays for the straggler" property the
// overall profile depends on.
func (p *PE) Barrier() { p.barrier(collBarrier) }

// barrier is Barrier's work, arriving as collective k: AllReduceInt64
// and Malloc synchronize through it too.
func (p *PE) barrier(k collective) {
	p.MayBlock(k.String())
	p.prof(RoutineBarrier, 0)
	if p.inj != nil {
		// Injection point: stretching this PE's clock on arrival makes
		// it the straggler whose lateness every peer pays for at the
		// release synchronization below.
		p.fireFaultCounted(fault.SiteBarrier, 0, 0)
	}
	// A barrier also implies quiet: all outstanding puts complete.
	p.quiet()
	// The barrier marker sits after the implied quiet's charge and
	// before the release synchronization: replay computes its own
	// generation maximum at this point, reproducing AdvanceTo exactly.
	p.RecordEvent(sim.EvBarrier, 0)
	max := p.await(k, p.clock.Now())
	p.clock.AdvanceTo(max)
}

// collectives provides reduction scratch space. Each reduction uses the
// barrier twice (gather then release), with a shared slot array.
type collectives struct {
	mu    sync.Mutex
	slots []int64
}

func newCollectives(n int) *collectives {
	return &collectives{slots: make([]int64, n)}
}

// ReduceOp identifies a reduction operator for AllReduceInt64.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		panic("shmem: unknown ReduceOp")
	}
}

// AllReduceInt64 performs a collective reduction over one int64 per PE
// and returns the reduced value on every PE (shmem_int64_sum_to_all and
// friends). Implies a barrier.
func (p *PE) AllReduceInt64(op ReduceOp, v int64) int64 {
	c := p.world.coll
	c.mu.Lock()
	c.slots[p.rank] = v
	c.mu.Unlock()
	p.barrier(collAllReduce)
	c.mu.Lock()
	acc := c.slots[0]
	for _, s := range c.slots[1:] {
		acc = op.apply(acc, s)
	}
	c.mu.Unlock()
	p.barrier(collAllReduce)
	return acc
}
