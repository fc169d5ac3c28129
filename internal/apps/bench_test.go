package apps

import (
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/shmem"
)

// BenchmarkISort runs the full ISx-style sort - keygen, histogram
// exchange, all-to-all key redistribution through batch handlers, local
// sort - end to end on an 8-PE world and reports sorted keys per op.
func BenchmarkISort(b *testing.B) {
	const npes, perNode, keysPerPE = 8, 4, 4000
	icfg := ISortConfig{KeysPerPE: keysPerPE, BucketWidth: 1 << 16, Seed: 42}
	b.ReportMetric(float64(npes*keysPerPE), "keys/op")
	for i := 0; i < b.N; i++ {
		err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
			rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
			res, err := ISort(rt, icfg)
			if err != nil {
				panic(err)
			}
			if res.Received == 0 && keysPerPE > 0 && pe.Rank() == 0 {
				// With 8 PEs and uniform keys, an empty bucket on rank 0
				// means the run lost messages.
				panic("empty bucket")
			}
			rt.Close()
			pe.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkISortLocalSort(b *testing.B) {
	// One PE's local-sort segment at the benchmark workload's size: about
	// 100 000 uniform keys in a bucket 65 536 wide, which is dense, so
	// the counting sort runs. It borrows its count table from the shared
	// pool, so a warm iteration allocates nothing.
	const me, width, n = 3, 1 << 16, 100000
	rng := splitmix{state: 42}
	unsorted := make([]int64, n)
	for i := range unsorted {
		unsorted[i] = me*width + int64(rng.next()%width)
	}
	keys := make([]int64, n)
	b.ReportAllocs()
	b.ReportMetric(n, "keys/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, unsorted)
		if err := sortBucket(keys, me, width); err != nil {
			b.Fatal(err)
		}
	}
}
