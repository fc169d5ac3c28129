package actor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

func cfg(npes, perNode int) shmem.Config {
	return shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}}
}

// TestHistogramListing12 runs the paper's Listing 1-2 program: every PE
// sends N increments to pseudo-random destinations; handlers bump a local
// array without atomics. The total histogram mass must equal the number
// of messages sent.
func TestHistogramListing12(t *testing.T) {
	const npes, perNode, n, bins = 8, 4, 200, 16
	totals := make([]int64, npes)
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		larray := make([]int64, bins)
		sel, err := NewSelector(rt, 1, Int64Codec())
		if err != nil {
			panic(err)
		}
		sel.Process(0, func(idx int64, srcPE int) {
			larray[idx]++ // no atomics: single-threaded PE semantics
		})
		rt.Finish(func() {
			sel.Start()
			rng := uint64(pe.Rank()*977 + 13)
			for i := 0; i < n; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				dst := int(rng>>33) % npes
				idx := int64(rng>>10) % bins
				sel.Send(0, idx, dst)
			}
			sel.Done(0)
		})
		var sum int64
		for _, v := range larray {
			sum += v
		}
		mu.Lock()
		totals[pe.Rank()] = sum
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var grand int64
	for _, v := range totals {
		grand += v
	}
	if grand != npes*n {
		t.Fatalf("histogram mass = %d, want %d", grand, npes*n)
	}
}

func TestSelectorValidation(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		if _, err := NewSelector(rt, 0, Int64Codec()); err == nil {
			panic("expected error for zero mailboxes")
		}
		// sim.ActorID keeps 8 bits of the mailbox index: mailbox 256 would
		// share mailbox 0's actor ID in every what-if attribution.
		if _, err := NewSelector(rt, sim.MaxMailboxes+1, Int64Codec()); err == nil {
			panic("expected error for more mailboxes than actor IDs can name")
		}
		if _, err := NewSelector(rt, 1, Codec[int64]{}); err == nil {
			panic("expected error for incomplete codec")
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStartWithoutHandlerPanics(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewSelector(rt, 1, Int64Codec())
		defer func() {
			if recover() == nil {
				panic("Start without Process should panic")
			}
			pe.Barrier()
		}()
		rt.Finish(func() { sel.Start() })
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBeforeStartPanics(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewSelector(rt, 1, Int64Codec())
		sel.Process(0, func(int64, int) {})
		defer func() {
			if recover() == nil {
				panic("Send before Start should panic")
			}
			pe.Barrier()
		}()
		sel.Send(0, 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiMailbox exercises a selector with two mailboxes carrying
// different protocols: mailbox 0 requests, mailbox 1 responds.
func TestMultiMailbox(t *testing.T) {
	const npes, perNode, n = 4, 2, 50
	responses := make([]int64, npes)
	var mu sync.Mutex
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, err := NewSelector(rt, 2, PairCodec())
		if err != nil {
			panic(err)
		}
		var got int64
		// Mailbox 0: request - reply with the doubled value to the
		// requester via mailbox 1.
		sel.Process(0, func(msg Pair, src int) {
			sel.Send(1, Pair{A: msg.A * 2, B: msg.B}, src)
		})
		// Mailbox 1: response - accumulate.
		sel.Process(1, func(msg Pair, src int) {
			got += msg.A
		})
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				dst := (pe.Rank() + i) % npes
				sel.Send(0, Pair{A: int64(i), B: int64(pe.Rank())}, dst)
			}
			sel.Done(0)
			// Mailbox 1 can only be done once no more replies will be
			// generated, i.e. after mailbox 0 has globally quiesced.
			// The simple (and bale-idiomatic) pattern is a two-phase
			// teardown: wait for our own mailbox-0 conveyor to finish,
			// then close mailbox 1.
			for !sel.MailboxComplete(0) {
				sel.Progress()
			}
			sel.Done(1)
		})
		mu.Lock()
		responses[pe.Rank()] = got
		mu.Unlock()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range responses {
		total += v
	}
	// Each PE sends pairs A=0..n-1; replies double: sum per PE = 2 * n(n-1)/2.
	want := int64(npes * n * (n - 1))
	if total != want {
		t.Fatalf("response total = %d, want %d", total, want)
	}
}

// TestNoAtomicsNeeded verifies single-threaded PE semantics: a handler
// and the PE's main code never run concurrently, so an unsynchronized
// counter never tears. Run with -race to make this meaningful.
func TestNoAtomicsNeeded(t *testing.T) {
	const npes, n = 4, 300
	err := shmem.Run(cfg(npes, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		counter := 0 // plain int, mutated by handler and main code
		sel, _ := NewSelector(rt, 1, Int64Codec())
		sel.Process(0, func(msg int64, src int) { counter++ })
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				counter++ // main-code mutation interleaved with handlers
				sel.Send(0, 1, (pe.Rank()+1)%npes)
			}
			sel.Done(0)
		})
		if counter != 2*n {
			panic("counter torn or lost updates")
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTracingIntegration runs a traced exchange and checks every
// ActorProf data stream end to end.
func TestTracingIntegration(t *testing.T) {
	const npes, perNode, n = 8, 4, 120
	machine := sim.Machine{NumPEs: npes, PEsPerNode: perNode}
	coll, err := trace.NewCollector(trace.Config{
		Logical:    true,
		Physical:   true,
		Overall:    true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
	}, machine)
	if err != nil {
		t.Fatal(err)
	}
	err = shmem.Run(shmem.Config{Machine: machine}, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{Collector: coll, BufferItems: 8})
		sel, err := NewSelector(rt, 1, Int64Codec())
		if err != nil {
			panic(err)
		}
		sel.Process(0, func(msg int64, src int) {
			rt.Work(papi.Work{Ins: 10, LstIns: 4})
		})
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				sel.Send(0, int64(i), (pe.Rank()+i)%npes)
			}
			sel.Done(0)
		})
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	set := coll.Set()

	// Logical: every PE recorded exactly n sends with the node mapping.
	lm := set.LogicalMatrix()
	for pe := 0; pe < npes; pe++ {
		if got := len(set.Logical[pe]); got != n {
			t.Errorf("PE %d logical records = %d, want %d", pe, got, n)
		}
		for i := range set.Logical[pe] {
			r := set.LogicalRecordAt(pe, i)
			if r.SrcNode != machine.NodeOf(r.SrcPE) || r.DstNode != machine.NodeOf(r.DstPE) {
				t.Fatalf("bad node mapping in %+v", r)
			}
			if r.MsgSize != 8 {
				t.Fatalf("logical MsgSize = %d, want 8", r.MsgSize)
			}
		}
	}
	if lm.Total() != npes*n {
		t.Errorf("logical matrix total = %d, want %d", lm.Total(), npes*n)
	}

	// PAPI: per-send records, counters positive, TOT_INS per PE covers
	// at least the cost-model send floor.
	for pe := 0; pe < npes; pe++ {
		var sends int
		for i := range set.PAPI[pe] {
			r := set.PAPIRecordAt(pe, i)
			sends += r.NumSends
			if len(r.Counters) != 2 {
				t.Fatalf("PAPI record with %d counters, want 2", len(r.Counters))
			}
		}
		if sends != n {
			t.Errorf("PE %d PAPI NumSends total = %d, want %d", pe, sends, n)
		}
	}
	ins := set.PAPITotalsPerPE(papi.TOT_INS)
	for pe, v := range ins {
		if v <= 0 {
			t.Errorf("PE %d TOT_INS = %d, want > 0", pe, v)
		}
	}

	// Physical: buffers were recorded; kinds respect the machine.
	pm := set.PhysicalMatrix()
	if pm.Total() == 0 {
		t.Error("no physical buffers recorded")
	}
	for _, recs := range set.Physical {
		for _, r := range recs {
			same := machine.SameNode(r.SrcPE, r.DstPE)
			if r.Kind == conveyor.LocalSend && !same {
				t.Fatalf("local_send across nodes: %+v", r)
			}
			if r.Kind != conveyor.LocalSend && same {
				t.Fatalf("%v within node: %+v", r.Kind, r)
			}
		}
	}

	// Overall: one record per PE; regimes non-negative and sum to total.
	if len(set.Overall) != npes {
		t.Fatalf("overall records = %d, want %d", len(set.Overall), npes)
	}
	for _, r := range set.Overall {
		if r.TMain < 0 || r.TProc < 0 || r.TComm < 0 {
			t.Errorf("negative regime in %+v", r)
		}
		if r.TMain+r.TProc+r.TComm != r.TTotal {
			t.Errorf("regimes do not sum to total: %+v", r)
		}
		if r.TTotal <= 0 {
			t.Errorf("PE %d total = %d, want > 0", r.PE, r.TTotal)
		}
	}
}

// TestPauseExcludesSetup checks that Unprofiled excludes a setup phase
// from every trace stream, as the paper's case study excludes graph
// loading: a run whose setup is unprofiled traces what the kernel-only
// run traces - logical and physical sends, the overall breakdown, and
// the PAPI counters the setup's loop and handlers charge - in record and
// in aggregate mode alike, with the setup's selector made in a nested
// Unprofiled.
func TestPauseExcludesSetup(t *testing.T) {
	const npes = 4
	machine := sim.Machine{NumPEs: npes, PEsPerNode: npes}
	run := func(t *testing.T, aggregate, setup bool) *trace.Set {
		t.Helper()
		coll, err := trace.NewCollector(trace.Config{
			Logical: true, Physical: true, Overall: true, Aggregate: aggregate,
			PAPIEvents: []papi.Event{papi.TOT_INS},
		}, machine)
		if err != nil {
			t.Fatal(err)
		}
		err = shmem.Run(shmem.Config{Machine: machine}, func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{Collector: coll})
			if setup {
				rt.Unprofiled(func() {
					var s *Selector[int64]
					rt.Unprofiled(func() { // nested: the outer call stays in force
						s, _ = NewSelector(rt, 1, Int64Codec())
						s.Process(0, func(int64, int) { rt.Work(papi.Work{Ins: 500}) })
					})
					rt.Finish(func() {
						s.Start()
						for i := 0; i < 40; i++ {
							rt.Work(papi.Work{Ins: 1500})
							s.Send(0, 7, (pe.Rank()+1)%npes)
						}
						s.Done(0)
					})
				})
			}
			kernel, _ := NewSelector(rt, 1, Int64Codec())
			kernel.Process(0, func(int64, int) {})
			rt.Finish(func() {
				kernel.Start()
				for i := 0; i < 10; i++ {
					kernel.Send(0, 7, (pe.Rank()+1)%npes)
				}
				kernel.Done(0)
			})
			rt.Close()
			pe.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return coll.Set()
	}
	for _, aggregate := range []bool{false, true} {
		t.Run(fmt.Sprintf("aggregate=%v", aggregate), func(t *testing.T) {
			kernelOnly, set := run(t, aggregate, false), run(t, aggregate, true)
			for pe, n := range set.LogicalMatrix().SendTotals() {
				if n != 10 {
					t.Errorf("PE %d logical sends = %d, want 10 (setup must be excluded)", pe, n)
				}
			}
			if got, want := set.PhysicalMatrix(), kernelOnly.PhysicalMatrix(); !reflect.DeepEqual(got, want) {
				t.Errorf("physical matrix = %v, want the kernel-only run's %v", got, want)
			}
			if got, want := set.OverallRecords(), kernelOnly.OverallRecords(); !reflect.DeepEqual(got, want) {
				t.Errorf("overall breakdown = %+v, want the kernel-only run's %+v", got, want)
			}
			if got, want := set.PAPITotalsPerPE(papi.TOT_INS), kernelOnly.PAPITotalsPerPE(papi.TOT_INS); !reflect.DeepEqual(got, want) {
				t.Errorf("TOT_INS per PE = %v, want the kernel-only run's %v", got, want)
			}
		})
	}
}

// TestSendAndRecvCounts checks the per-mailbox delivered count.
func TestSendAndRecvCounts(t *testing.T) {
	const npes, n = 4, 30
	err := shmem.Run(cfg(npes, 4), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewSelector(rt, 1, Int64Codec())
		sel.Process(0, func(int64, int) {})
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				sel.Send(0, 1, (pe.Rank()+1)%npes)
			}
			sel.Done(0)
		})
		if sel.recvCount[0] != n {
			panic("recv count mismatch: each PE receives n from its neighbor")
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSegmentProfiling exercises the user-facing segment API through a
// real actor run.
func TestSegmentProfiling(t *testing.T) {
	const npes, n = 4, 50
	machine := sim.Machine{NumPEs: npes, PEsPerNode: 2}
	coll, err := trace.NewCollector(trace.Config{
		Overall:    true,
		PAPIEvents: []papi.Event{papi.TOT_INS},
	}, machine)
	if err != nil {
		t.Fatal(err)
	}
	err = shmem.Run(shmem.Config{Machine: machine}, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{Collector: coll})
		sel, _ := NewActor(rt, Int64Codec())
		sel.Process(0, func(int64, int) {})
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				rt.Segment("build-message", func() {
					rt.Work(papi.Work{Ins: 30})
				})
				sel.Send(0, 1, (pe.Rank()+i)%npes)
			}
			sel.Done(0)
		})
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	set := coll.Set()
	for pe := 0; pe < npes; pe++ {
		segs := set.Segments[pe]
		if len(segs) != 1 {
			t.Fatalf("PE %d: %d segments, want 1", pe, len(segs))
		}
		s := segs[0]
		if s.Name != "build-message" || s.Count != n {
			t.Fatalf("PE %d segment: %+v", pe, s)
		}
		if s.Counters[0] != 30*n {
			t.Fatalf("PE %d segment TOT_INS = %d, want %d", pe, s.Counters[0], 30*n)
		}
		if s.Cycles <= 0 {
			t.Fatalf("PE %d segment cycles = %d", pe, s.Cycles)
		}
	}
}

// TestTwoSelectorsConcurrently runs two independent selectors in one
// finish scope - distinct protocols progressing in the same superstep,
// the "nesting of Conveyors objects" HClib-Actor enables.
func TestTwoSelectorsConcurrently(t *testing.T) {
	const npes, n = 4, 60
	err := shmem.Run(cfg(npes, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{BufferItems: 8})
		a, _ := NewActor(rt, Int64Codec())
		b, _ := NewActor(rt, PairCodec())
		var sumA, sumB int64
		a.Process(0, func(v int64, src int) { sumA += v })
		b.Process(0, func(p Pair, src int) { sumB += p.A + p.B })
		rt.Finish(func() {
			a.Start()
			b.Start()
			for i := 0; i < n; i++ {
				a.Send(0, 1, (pe.Rank()+i)%npes)
				b.Send(0, Pair{A: 2, B: 3}, (pe.Rank()+i+1)%npes)
			}
			a.Done(0)
			b.Done(0)
		})
		if sumA != n {
			panic("selector A lost messages")
		}
		if sumB != 5*n {
			panic("selector B lost messages")
		}
		if !a.finished || !b.finished {
			panic("selectors not finished after finish scope")
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewActor(rt, Int64Codec())
		sel.Process(0, func(int64, int) {})
		defer func() {
			if recover() == nil {
				panic("double Start should panic")
			}
			pe.Barrier()
		}()
		rt.Finish(func() {
			sel.Start()
			sel.Start()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendAfterDonePanics(t *testing.T) {
	err := shmem.Run(cfg(2, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewActor(rt, Int64Codec())
		sel.Process(0, func(int64, int) {})
		rt.Finish(func() {
			sel.Start()
			sel.Done(0)
			defer func() {
				if recover() == nil {
					panic("Send after Done should panic")
				}
			}()
			sel.Send(0, 1, 0)
		})
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectorCubeTopologyOption(t *testing.T) {
	// 16 PEs on 4 nodes with an explicit cube topology through the
	// actor layer.
	const npes, perNode, n = 16, 4, 40
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{BufferItems: 8, Topology: conveyor.TopologyCube})
		sel, _ := NewActor(rt, Int64Codec())
		var got int64
		sel.Process(0, func(v int64, src int) { got += v })
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < n; i++ {
				sel.Send(0, 1, (pe.Rank()*5+i)%npes)
			}
			sel.Done(0)
		})
		total := pe.AllReduceInt64(shmem.OpSum, got)
		if total != npes*n {
			panic("messages lost over the cube")
		}
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVirtualDeterminism runs the same traced program twice and demands
// identical logical counts, PAPI totals, and per-PE MAIN/PROC cycles:
// Virtual timing mode must be deterministic for event-derived values.
func TestVirtualDeterminism(t *testing.T) {
	run := func() ([]int64, []int64, []int64) {
		const npes, n = 4, 100
		machine := sim.Machine{NumPEs: npes, PEsPerNode: 2}
		coll, err := trace.NewCollector(trace.Config{
			Logical: true, Overall: true,
			PAPIEvents: []papi.Event{papi.TOT_INS},
		}, machine)
		if err != nil {
			t.Fatal(err)
		}
		err = shmem.Run(shmem.Config{Machine: machine}, func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{Collector: coll, BufferItems: 8})
			sel, _ := NewSelector(rt, 1, Int64Codec())
			sel.Process(0, func(msg int64, src int) { rt.Work(papi.Work{Ins: 5}) })
			rt.Finish(func() {
				sel.Start()
				for i := 0; i < n; i++ {
					sel.Send(0, int64(i), (pe.Rank()*3+i)%npes)
				}
				sel.Done(0)
			})
			rt.Close()
			pe.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		set := coll.Set()
		mains := make([]int64, npes)
		procs := make([]int64, npes)
		for _, r := range set.Overall {
			mains[r.PE] = r.TMain
			procs[r.PE] = r.TProc
		}
		return set.PAPITotalsPerPE(papi.TOT_INS), mains, procs
	}
	ins1, main1, proc1 := run()
	ins2, main2, proc2 := run()
	for pe := range ins1 {
		if ins1[pe] != ins2[pe] {
			t.Errorf("PE %d TOT_INS differs across runs: %d vs %d", pe, ins1[pe], ins2[pe])
		}
		if main1[pe] != main2[pe] {
			t.Errorf("PE %d T_MAIN differs across runs: %d vs %d", pe, main1[pe], main2[pe])
		}
		if proc1[pe] != proc2[pe] {
			t.Errorf("PE %d T_PROC differs across runs: %d vs %d", pe, proc1[pe], proc2[pe])
		}
	}
}
