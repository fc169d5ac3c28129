package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"actorprof/internal/actor"
	"actorprof/internal/shmem"
)

// refISortSerial is the comparison-sort reference ISortSerial replaced:
// every key of every PE appended to one array, slices.Sort, and the
// buckets cut out of the sorted run. Obviously right and n log n; the
// counting kernel must return exactly its buckets.
func refISortSerial(npes int, cfg ISortConfig) [][]int64 {
	maxKey := int64(npes) * cfg.BucketWidth
	all := make([]int64, 0, npes*cfg.KeysPerPE)
	for pe := 0; pe < npes; pe++ {
		rng := splitmix{state: cfg.Seed + uint64(pe)*0x9e3779b97f4a7c15}
		for i := 0; i < cfg.KeysPerPE; i++ {
			all = append(all, int64(rng.next()%uint64(maxKey)))
		}
	}
	slices.Sort(all)
	buckets := make([][]int64, npes)
	lo := 0
	for b := range buckets {
		end, hi := int64(b+1)*cfg.BucketWidth, lo
		for hi < len(all) && all[hi] < end {
			hi++
		}
		if hi > lo {
			buckets[b] = all[lo:hi:hi]
		}
		lo = hi
	}
	return buckets
}

// bucketsDigest is FNV-64a over the bucket count, then each bucket's
// length (all ones for a nil bucket, so nil and empty differ) and keys.
func bucketsDigest(buckets [][]int64) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	put(uint64(len(buckets)))
	for _, keys := range buckets {
		if keys == nil {
			put(^uint64(0))
			continue
		}
		put(uint64(len(keys)))
		for _, k := range keys {
			put(uint64(k))
		}
	}
	return h.Sum64()
}

// checkBucketLayout: an empty bucket is nil, and the others are capped
// views (len == cap) of one array, in bucket order.
func checkBucketLayout(t *testing.T, what string, buckets [][]int64) {
	t.Helper()
	var next unsafe.Pointer
	for b, keys := range buckets {
		if keys == nil {
			continue
		}
		if len(keys) == 0 {
			t.Fatalf("%s: bucket %d is empty but not nil", what, b)
		}
		if len(keys) != cap(keys) {
			t.Fatalf("%s: bucket %d has len %d, cap %d", what, b, len(keys), cap(keys))
		}
		first := unsafe.Pointer(unsafe.SliceData(keys))
		if next != nil && first != next {
			t.Fatalf("%s: bucket %d does not start where the bucket before it ends", what, b)
		}
		next = unsafe.Add(first, 8*len(keys))
	}
}

// isortBenchmarkSeed is the key seed of the benchmark's isort_p64_batch
// workload at its default seed 42.
const isortBenchmarkSeed = 0x6220476b78beea29

// TestISortSerialDigestsPinned pins the reference's buckets bit for bit.
// The digests were recorded with refISortSerial.
func TestISortSerialDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		npes   int
		cfg    ISortConfig
		digest uint64
	}{
		{"benchmark", 64, ISortConfig{100000, 65536, isortBenchmarkSeed}, 0x27290faa7c28b2e7},
		{"chaos-4", 4, chaosISort, 0x351e97e22385789c},
		{"chaos-8", 8, chaosISort, 0x772ebdba077544f4},
		{"chaos-32", 32, chaosISort, 0xf78bed4bbc8e740f},
		{"sparse", 16, ISortConfig{50, 1 << 40, 9}, 0xb7713219293ce867},
		{"non-power-of-two", 12, ISortConfig{1000, 777, 13}, 0x1d7770199a35a534},
		{"one-pe", 1, ISortConfig{5000, 3000, 21}, 0xe29e65ce978f48cd},
		{"no-keys", 8, ISortConfig{0, 64, 5}, 0x83ef0eed914b078d},
		{"empty-buckets", 32, ISortConfig{1, 1 << 20, 8}, 0x0b3b28bc187f5358},
	} {
		buckets := ISortSerial(c.npes, c.cfg)
		checkBucketLayout(t, c.name, buckets)
		if got := bucketsDigest(buckets); got != c.digest {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.digest)
		}
		if c.name == "empty-buckets" && !slices.ContainsFunc(buckets, func(keys []int64) bool { return keys == nil }) {
			t.Errorf("%s: no bucket is empty", c.name)
		}
	}
}

// TestISortSerialMatchesSortedReference checks the reference against the
// comparison sort on seeded random configurations: dense and sparse
// buckets, key ranges of any width, one PE, no keys.
func TestISortSerialMatchesSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	for i := 0; i < 240; i++ {
		npes := 1 + rnd.Intn(40)
		cfg := ISortConfig{KeysPerPE: rnd.Intn(400), Seed: rnd.Uint64()}
		switch i % 4 {
		case 0: // dense: about as many keys per bucket as it is wide
			cfg.BucketWidth = 1 + rnd.Int63n(int64(cfg.KeysPerPE)+1)
		case 1: // sparse: far wider than its keys
			cfg.BucketWidth = 1 + rnd.Int63n(1<<40)
		case 2: // near the dense/sparse boundary
			cfg.BucketWidth = 1 + rnd.Int63n(4*int64(cfg.KeysPerPE)+2048)
		default: // any width
			cfg.BucketWidth = 1 + rnd.Int63n(1<<16)
		}
		what := fmt.Sprintf("%d PEs %+v", npes, cfg)
		got, want := ISortSerial(npes, cfg), refISortSerial(npes, cfg)
		checkBucketLayout(t, what, got)
		if !slices.EqualFunc(got, want, func(a, b []int64) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }) {
			t.Fatalf("%s: buckets differ from the comparison sort", what)
		}
	}
}

// TestISortSerialAllocatesItsOutput: at the benchmark's size the
// reference allocates little beyond the 6.4 M keys it returns.
func TestISortSerialAllocatesItsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("6.4 M keys")
	}
	const npes, keys = 64, 100000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buckets := ISortSerial(npes, ISortConfig{keys, 65536, isortBenchmarkSeed})
	runtime.ReadMemStats(&after)
	output := float64(npes * keys * 8)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.02*output {
		t.Errorf("allocated %.1f MB for a %.1f MB output, want at most 2%% more", got/1e6, output/1e6)
	}
	runtime.KeepAlive(buckets)
}

// BenchmarkISortSerial times the reference at the benchmark's size,
// 64 PEs x 100 000 keys in buckets 65 536 wide, against the comparison
// sort it replaced, in ns per key.
func BenchmarkISortSerial(b *testing.B) {
	const npes, keys = 64, 100000
	cfg := ISortConfig{keys, 65536, isortBenchmarkSeed}
	for _, k := range []struct {
		name   string
		kernel func(int, ISortConfig) [][]int64
	}{{"counting", ISortSerial}, {"comparison-sort", refISortSerial}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.kernel(npes, cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*npes*keys), "ns/key")
		})
	}
}

// TestISortConfigValidate: a negative key count, a non-positive width or
// PE count, and a key range or key count past int64 are config errors,
// which ISortSerial panics with; the largest range that fits is not.
func TestISortConfigValidate(t *testing.T) {
	for _, c := range []struct {
		npes int
		cfg  ISortConfig
		ok   bool
	}{
		{64, ISortConfig{100000, 65536, 1}, true},
		{4, ISortConfig{0, 1, 1}, true},
		{4, ISortConfig{1, math.MaxInt64 / 4, 1}, true},
		{3, ISortConfig{math.MaxInt / 3, 1, 1}, true},
		{4, ISortConfig{-5, 64, 1}, false},
		{4, ISortConfig{5, 0, 1}, false},
		{4, ISortConfig{5, -64, 1}, false},
		{0, ISortConfig{5, 64, 1}, false},
		{-4, ISortConfig{5, 64, 1}, false},
		{4, ISortConfig{1, math.MaxInt64/4 + 1, 1}, false},
		{4, ISortConfig{1, 1 << 62, 1}, false},
		{3, ISortConfig{math.MaxInt/3 + 1, 1, 1}, false},
	} {
		err := c.cfg.Validate(c.npes)
		if (err == nil) != c.ok {
			t.Errorf("%d PEs %+v: Validate = %v, want ok %v", c.npes, c.cfg, err, c.ok)
		}
		if c.ok {
			continue
		}
		func() {
			defer func() {
				if r, _ := recover().(error); r == nil || r.Error() != err.Error() {
					t.Errorf("%d PEs %+v: ISortSerial panicked with %v, want %v", c.npes, c.cfg, r, err)
				}
			}()
			ISortSerial(c.npes, c.cfg)
		}()
	}
}

// TestISortValidatesConfig: ISort returns the config error on every PE
// instead of dividing by a wrapped key range.
func TestISortValidatesConfig(t *testing.T) {
	err := shmem.Run(cfg(4, 4), func(pe *shmem.PE) {
		rt := actor.NewRuntime(pe, actor.RuntimeOptions{})
		for _, bad := range []ISortConfig{{-5, 64, 1}, {5, 0, 1}, {5, 1 << 62, 1}} {
			if _, err := ISort(rt, bad); err == nil || err.Error() != bad.Validate(4).Error() {
				panic(fmt.Sprintf("ISort(%+v) = %v, want the Validate error", bad, err))
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
