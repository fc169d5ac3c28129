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

// BenchmarkLoadInt64 is one poll of a sequence or ack word; with
// BenchmarkPutInt64Foreign, what every buffer and every idle sweep pays
// the heap. Two PEs, uncontended: ≈ 20 ns each under the per-PE heap
// mutex, a bounds check and an atomic word access without it.
func BenchmarkLoadInt64(b *testing.B) {
	benchWorld(b, 2, 2, func(pe *PE) {
		off := pe.Malloc(8)
		if pe.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.LoadInt64(1, off)
			}
		}
		pe.Barrier()
	})
}

func BenchmarkPutInt64Foreign(b *testing.B) {
	benchWorld(b, 2, 2, func(pe *PE) {
		off := pe.Malloc(8)
		if pe.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.PutInt64(1, off, int64(i))
			}
		}
		pe.Barrier()
	})
}
