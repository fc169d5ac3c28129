package shmem

import (
	"testing"

	"actorprof/internal/sim"
)

func benchWorld(b *testing.B, npes, perNode int, body func(pe *PE)) {
	b.Helper()
	err := Run(Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}}, body)
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPutIntraNode(b *testing.B) {
	benchWorld(b, 2, 2, func(pe *PE) {
		off := pe.Malloc(1024)
		data := make([]byte, 1024)
		pe.Barrier()
		if pe.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.Put(1, off, data)
			}
		}
		pe.Barrier()
	})
}

func BenchmarkPutInterNode(b *testing.B) {
	benchWorld(b, 2, 1, func(pe *PE) {
		off := pe.Malloc(1024)
		data := make([]byte, 1024)
		pe.Barrier()
		if pe.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.Put(1, off, data)
			}
		}
		pe.Barrier()
	})
}

func BenchmarkPutNBIQuietBatch(b *testing.B) {
	// The conveyor pattern: a batch of NBI puts completed by one quiet.
	benchWorld(b, 2, 1, func(pe *PE) {
		off := pe.Malloc(64 * 1024)
		data := make([]byte, 1024)
		pe.Barrier()
		if pe.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 16; k++ {
					pe.PutNBI(1, off+k*1024, data)
				}
				pe.Quiet()
			}
		}
		pe.Barrier()
	})
}

func BenchmarkBarrier(b *testing.B) {
	benchWorld(b, 16, 8, func(pe *PE) {
		if pe.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			pe.Barrier()
		}
	})
}

func BenchmarkAtomicFetchAdd(b *testing.B) {
	benchWorld(b, 4, 2, func(pe *PE) {
		off := pe.Malloc(8)
		pe.Barrier()
		if pe.Rank() == 1 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.AtomicFetchAddInt64(0, off, 1)
			}
		}
		pe.Barrier()
	})
}

func BenchmarkAllReduce(b *testing.B) {
	benchWorld(b, 8, 4, func(pe *PE) {
		if pe.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			pe.AllReduceInt64(OpSum, int64(pe.Rank()))
		}
	})
}

// wordAccess runs measure on PE 0 of a two-PE node, with op one access
// of PE 1's heap word: a load polls a sequence or ack word, a put writes
// one. With both, what every buffer and every idle sweep pays the heap.
func wordAccess(tb testing.TB, put bool, measure func(op func())) {
	err := Run(Config{Machine: sim.Machine{NumPEs: 2, PEsPerNode: 2}}, func(pe *PE) {
		off := pe.Malloc(8)
		if pe.Rank() == 0 {
			var v int64
			op := func() { pe.LoadInt64(1, off) }
			if put {
				op = func() { v++; pe.PutInt64(1, off, v) }
			}
			measure(op)
		}
		pe.Barrier()
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// loop is how the benchmarks time op: b.N calls after its setup, with
// allocations reported.
func loop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkLoadInt64 and BenchmarkPutInt64Foreign: uncontended, ≈ 20 ns
// each under the per-PE heap mutex, a bounds check and an atomic word
// access without it.
func BenchmarkLoadInt64(b *testing.B) {
	wordAccess(b, false, func(op func()) { loop(b, op) })
}

func BenchmarkPutInt64Foreign(b *testing.B) {
	wordAccess(b, true, func(op func()) { loop(b, op) })
}
