package actor

import (
	"sync"
	"testing"

	"actorprof/internal/fault"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/whatif"
)

// TestProcessBatchDelivery is the basic batched-dispatch contract: every
// sent message is delivered exactly once, with the matching source PE,
// through invocations that cover whole pull-ring runs.
func TestProcessBatchDelivery(t *testing.T) {
	const npes, perNode, n = 4, 2, 300
	sums := make([]int64, npes)
	recvs := make([]int64, npes)
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, err := NewActor(rt, Int64Codec())
		if err != nil {
			panic(err)
		}
		var sum int64
		sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
			if len(msgs) != len(srcPEs) {
				panic("batch slice lengths diverge")
			}
			for i, msg := range msgs {
				if srcPEs[i] < 0 || srcPEs[i] >= npes {
					panic("bad source PE")
				}
				sum += msg
			}
		})
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				sel.Send(0, int64(i), i%npes)
			}
			sel.Done(0)
		})
		mu.Lock()
		sums[pe.Rank()] = sum
		recvs[pe.Rank()] = sel.recvCount[0]
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var total, recvd int64
	for pe := range sums {
		total += sums[pe]
		recvd += recvs[pe]
	}
	want := int64(npes) * n * (n - 1) / 2
	if total != want {
		t.Errorf("delivered sum = %d, want %d", total, want)
	}
	if recvd != npes*n {
		t.Errorf("total RecvCount = %d, want %d", recvd, npes*n)
	}
}

// siteRecorder records every SiteHandler hook invocation. It is a pure
// observer: the zero Decision perturbs nothing.
type siteRecorder struct {
	mu     sync.Mutex
	points []fault.Point
}

func (r *siteRecorder) Decide(pt fault.Point) fault.Decision {
	if pt.Site == fault.SiteHandler {
		r.mu.Lock()
		r.points = append(r.points, pt)
		r.mu.Unlock()
	}
	return fault.Decision{}
}

// TestBatchAccountingPerMessage pins the accounting contract of batched
// delivery: RecvCount counts messages (not handler activations), and the
// SiteHandler fault hook fires once per batch carrying the batch length,
// so the per-message total is recoverable from the hook arguments. A
// naive implementation that bumps RecvCount once per activation, or
// fires the hook per message, or drops the length argument, fails here.
func TestBatchAccountingPerMessage(t *testing.T) {
	const npes, perNode, n = 2, 2, 400
	rec := &siteRecorder{}
	recvs := make([]int64, npes)
	var mu sync.Mutex
	err := shmem.Run(shmem.Config{
		Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode},
		Fault:   rec,
	}, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, err := NewActor(rt, Int64Codec())
		if err != nil {
			panic(err)
		}
		sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {})
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				sel.Send(0, int64(i), i%npes)
			}
			sel.Done(0)
		})
		mu.Lock()
		recvs[pe.Rank()] = sel.recvCount[0]
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, got := range recvs {
		// Sends are balanced, so each PE receives exactly n messages.
		if got != n {
			t.Errorf("PE %d RecvCount = %d, want %d (per message, not per activation)", pe, got, n)
		}
	}
	perPEArgs := make([]int64, npes)
	activations := make([]int, npes)
	for _, pt := range rec.points {
		if pt.Arg < 1 {
			t.Fatalf("SiteHandler point with batch length %d, want >= 1", pt.Arg)
		}
		perPEArgs[pt.PE] += pt.Arg
		activations[pt.PE]++
	}
	for pe := 0; pe < npes; pe++ {
		if perPEArgs[pe] != n {
			t.Errorf("PE %d: sum of SiteHandler batch lengths = %d, want %d", pe, perPEArgs[pe], n)
		}
		if activations[pe] >= n {
			t.Errorf("PE %d: %d handler activations for %d messages - batching never happened", pe, activations[pe], n)
		}
	}
}

// TestProcessBatchValidation pins the registration rules: a mailbox
// takes one handler, whichever form installs it, before Start.
func TestProcessBatchValidation(t *testing.T) {
	err := shmem.Run(cfg(1, 1), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, err := NewSelector(rt, 2, Int64Codec())
		if err != nil {
			panic(err)
		}
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					panic("expected panic: " + name)
				}
			}()
			f()
		}
		perMessage := func(mb int) func() { return func() { sel.Process(mb, func(int64, int) {}) } }
		perRun := func(mb int) func() { return func() { sel.ProcessBatch(mb, func([]int64, []int) {}) } }
		perMessage(0)()
		mustPanic("Process over Process", perMessage(0))
		mustPanic("ProcessBatch over Process", perRun(0))
		perRun(1)()
		mustPanic("Process over ProcessBatch", perMessage(1))
		mustPanic("ProcessBatch over ProcessBatch", perRun(1))
		rt.Finish(func() {
			sel.Start()
			mustPanic("Process after Start", perMessage(1))
			mustPanic("ProcessBatch after Start", perRun(1))
			sel.Done(0)
			sel.Done(1)
		})
		rt.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchDispatchZeroAlloc is the batched twin of
// TestHandlerDispatchZeroAlloc: once the conveyor pools and the
// per-mailbox scratch slices reach their high-water mark, a full
// send/batch-dispatch burst must not allocate.
func TestBatchDispatchZeroAlloc(t *testing.T) {
	count := 0
	err := shmem.Run(cfg(1, 1), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, err := NewActor(rt, Int64Codec())
		if err != nil {
			panic(err)
		}
		sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) { count += len(msgs) })
		rt.Finish(func() {
			sel.Start()
			burst := func() {
				for m := 0; m < 256; m++ {
					sel.Send(0, int64(m), 0)
				}
				sel.Progress()
			}
			burst() // warm pools, delivery ring, and batch scratch
			allocs := testing.AllocsPerRun(10, burst)
			if allocs != 0 {
				t.Errorf("batched send/dispatch burst allocated %.1f times per run, want 0", allocs)
			}
			sel.Done(0)
		})
		rt.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("no messages dispatched")
	}
}

// TestWorkNEqualsWorkLoop: WorkN(w, n) after a loop is n calls of Work(w)
// inside it - the same nine counters, the same clock (on skewed PEs too,
// where each charge rounds on its own) and a recorded schedule the
// what-if replay prices the same, at the recorded cost and at another.
// It is what lets a loop that sends nothing report its work once.
func TestWorkNEqualsWorkLoop(t *testing.T) {
	const npes, n = 4, 1000
	machine := sim.Machine{NumPEs: npes, PEsPerNode: 2}
	cost := sim.DefaultCostModel()
	w, other := papi.Work{Ins: 10, LstIns: 2, L1DCM: 1, L2DCM: 3, TLBDM: 4, BrMsp: 5, PrfDM: 6, VecIns: 7, Cyc: 6}, papi.Work{Ins: 3}
	type seen struct {
		counts [npes][papi.NumEvents]int64
		clocks [npes]int64
		sched  *sim.Schedule
	}
	observe := func(work func(rt *Runtime)) seen {
		plan, err := fault.NamedPlan("stragglers", 7)
		if err != nil {
			t.Fatal(err)
		}
		var s seen
		rec := sim.NewScheduleRecorder(machine, cost)
		err = shmem.Run(shmem.Config{Machine: machine, Cost: cost, Fault: plan, Schedule: rec}, func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{})
			rt.Finish(func() {
				rt.Work(w) // a charge of the same size before the run, one of another after
				work(rt)
				rt.Work(other)
				rt.WorkN(w, 0)                         // nothing
				s.clocks[pe.Rank()] = pe.Clock().Now() // before the scope's barrier levels them
			})
			for ev := range s.counts[pe.Rank()] {
				s.counts[pe.Rank()][ev] = rt.Engine().Read(papi.Event(ev))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		s.sched = rec.Schedule()
		return s
	}
	loop := observe(func(rt *Runtime) {
		for i := 0; i < n; i++ {
			rt.Work(w)
		}
	})
	run := observe(func(rt *Runtime) { rt.WorkN(w, n) })
	if loop.counts != run.counts || loop.clocks != run.clocks {
		t.Errorf("n x Work left counters %v and clocks %v, WorkN %v and %v", loop.counts, loop.clocks, run.counts, run.clocks)
	}
	if loop.counts[0][papi.TOT_INS] != (n+1)*w.Ins+other.Ins || loop.clocks[0] == loop.clocks[1] {
		t.Errorf("PE 0 retired %d instructions, want %d; clocks %v, want PE 0's skewed",
			loop.counts[0][papi.TOT_INS], (n+1)*w.Ins+other.Ins, loop.clocks)
	}
	dear := cost
	dear.InstructionCycles *= 3
	for _, c := range []sim.CostModel{cost, dear} {
		a, err := whatif.Replay(loop.sched, whatif.Perturbation{Cost: c})
		if err != nil {
			t.Fatal(err)
		}
		b, err := whatif.Replay(run.sched, whatif.Perturbation{Cost: c})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) || a.Makespan == 0 {
			t.Errorf("replay prices the loop's schedule at %+v and the run's at %+v", a, b)
		}
	}
}
