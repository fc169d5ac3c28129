package actor

import (
	"testing"

	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// benchSendRecv measures end-to-end actor messaging: npes PEs each
// sending msgs messages, handlers counting, with optional tracing.
func benchSendRecv(b *testing.B, npes, perNode, msgs int, traceCfg trace.Config) {
	b.ReportMetric(float64(npes*msgs), "msgs/op")
	machine := sim.Machine{NumPEs: npes, PEsPerNode: perNode}
	for i := 0; i < b.N; i++ {
		var coll *trace.Collector
		if traceCfg.Any() {
			var err error
			coll, err = trace.NewCollector(traceCfg, machine)
			if err != nil {
				b.Fatal(err)
			}
		}
		err := shmem.Run(shmem.Config{Machine: machine}, func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{Collector: coll})
			sel, err := NewActor(rt, Int64Codec())
			if err != nil {
				panic(err)
			}
			count := 0
			sel.Process(0, func(int64, int) { count++ })
			rt.Finish(func() {
				sel.Start()
				for m := 0; m < msgs; m++ {
					sel.Send(0, int64(m), (pe.Rank()+m)%npes)
				}
				sel.Done(0)
			})
			rt.Close()
			pe.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSendRecvUntraced(b *testing.B) {
	benchSendRecv(b, 8, 4, 5000, trace.Config{})
}

func BenchmarkSendRecvLogicalTrace(b *testing.B) {
	benchSendRecv(b, 8, 4, 5000, trace.Config{Logical: true})
}

func BenchmarkSendRecvFullTrace(b *testing.B) {
	benchSendRecv(b, 8, 4, 5000, trace.Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
	})
}

func BenchmarkSendRecvSampledTrace(b *testing.B) {
	benchSendRecv(b, 8, 4, 5000, trace.Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents:      []papi.Event{papi.TOT_INS, papi.LST_INS},
		LogicalSample:   100,
		PAPIRecordEvery: 256,
	})
}

// benchDispatch measures dispatch throughput in isolation: each
// iteration stages dispatchBurst self-sends into the pull ring with raw
// conveyor pushes (untimed - the send side has its own benchmarks), then
// times one Progress that drains the whole backlog through the installed
// handler. The reported ns/op covers dispatchBurst messages; divide for
// the per-message figure. Both registration forms go through the one
// run drain at the same (default) aggregation buffer size, so
// BenchmarkHandlerDispatch minus BenchmarkHandlerDispatchBatch is the
// cost of Process's per-message closure call; both at 0 allocs/op.
const dispatchBurst = 4096

func benchDispatch(b *testing.B, register func(sel *Selector[int64], count *int)) {
	count := 0
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{})
			sel, err := NewActor(rt, Int64Codec())
			if err != nil {
				panic(err)
			}
			register(sel, &count)
			rt.Finish(func() {
				sel.Start()
				c := sel.convs[0]
				buf := make([]byte, 8)
				fill := func() {
					for m := 0; m < dispatchBurst; m++ {
						for !c.Push(buf, 0) {
							c.Advance(false)
						}
					}
					// Receive runs before flush inside Advance, so landing
					// the last buffer in the ring takes two rounds.
					c.Advance(false)
					c.Advance(false)
				}
				fill()
				sel.Progress() // warm the ring and the batch scratch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fill()
					b.StartTimer()
					sel.Progress()
				}
				b.StopTimer()
				sel.Done(0)
			})
			rt.Close()
		})
	if err != nil {
		b.Fatal(err)
	}
	if count != (b.N+1)*dispatchBurst {
		b.Fatalf("dispatched %d messages, want %d", count, (b.N+1)*dispatchBurst)
	}
	b.ReportMetric(dispatchBurst, "msgs/op")
}

func BenchmarkHandlerDispatch(b *testing.B) {
	// A Process handler off a staged backlog: the run drain, then one
	// closure call per message.
	benchDispatch(b, func(sel *Selector[int64], count *int) {
		sel.Process(0, func(int64, int) { *count++ })
	})
}

func BenchmarkHandlerDispatchBatch(b *testing.B) {
	// The run drain alone: each pull-ring run is ONE ProcessBatch
	// invocation over recycled scratch, with one tally, one instruction
	// charge and one handler bracket for the run.
	benchDispatch(b, func(sel *Selector[int64], count *int) {
		sel.ProcessBatch(0, func(msgs []int64, srcPEs []int) { *count += len(msgs) })
	})
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	codec := TripleCodec()
	buf := make([]byte, codec.Size)
	msg := Triple{A: 1, B: 2, C: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Encode(buf, msg)
		msg = codec.Decode(buf)
	}
	if msg.A != 1 {
		b.Fatal("corrupted")
	}
}

// BenchmarkRuntimeWork is the price of reporting one message's work: nine
// counter adds and a clock charge. 14 ns/op when Engine.Tally took the
// bundle by value (DESIGN.md §8), ≈ 7 by pointer.
func BenchmarkRuntimeWork(b *testing.B) {
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}}, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Work(papi.Work{Ins: 6, LstIns: 1, Cyc: 4})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
