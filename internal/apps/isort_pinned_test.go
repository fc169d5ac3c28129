package apps_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
)

// isortOutcome is what one aggregate-trace ISort run computes and
// charges, as FNV-64a digests: every PE's bucket (length first, then its
// keys, in rank order), each PE's TOT_INS total and the logical send
// matrix (row by row), beside the two totals a failure is read by.
type isortOutcome struct {
	buckets, totIns, sends uint64
	insTotal, sendTotal    int64
}

func (o isortOutcome) String() string {
	return fmt.Sprintf("{%#x, %#x, %#x, %d, %d}", o.buckets, o.totIns, o.sends, o.insTotal, o.sendTotal)
}

func runISortOutcome(t *testing.T, m sim.Machine, cfg apps.ISortConfig) isortOutcome {
	t.Helper()
	buckets := make([][]int64, m.NumPEs)
	tc := core.FullTrace()
	tc.Aggregate = true
	set, err := core.Run(core.Options{Machine: m, Trace: tc}, func(rt *actor.Runtime) error {
		res, err := apps.ISort(rt, cfg)
		buckets[rt.PE().Rank()] = res.Keys
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(rows ...[]int64) uint64 {
		h := fnv.New64a()
		var w [8]byte
		for _, row := range rows {
			binary.LittleEndian.PutUint64(w[:], uint64(len(row)))
			h.Write(w[:])
			for _, v := range row {
				binary.LittleEndian.PutUint64(w[:], uint64(v))
				h.Write(w[:])
			}
		}
		return h.Sum64()
	}
	ins, lm := set.PAPITotalsPerPE(papi.TOT_INS), set.LogicalMatrix()
	var insTotal int64
	for _, v := range ins {
		insTotal += v
	}
	return isortOutcome{digest(buckets...), digest(ins), digest(lm...), insTotal, lm.Total()}
}

// TestISortOutcomePinned pins what the distributed sort computes and what
// it charges the simulated machine, bit for bit, at GOMAXPROCS 1 and 4:
// how ISort holds its keys on the host is free to change, its buckets,
// instruction counts and messages are not. The values were recorded from
// the sort that stored its whole input.
func TestISortOutcomePinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		m    sim.Machine
		cfg  apps.ISortConfig
		want isortOutcome
	}{
		{"32x8", sim.Machine{NumPEs: 32, PEsPerNode: 8}, apps.ISortConfig{KeysPerPE: 4000, BucketWidth: 65536, Seed: 42}, isortOutcome{0x7cda0e737ccbcb03, 0xdb8dd3939acc407b, 0xd89401dcecaea45f, 16747520, 129024}},
		{"chaos-4x2", sim.Machine{NumPEs: 4, PEsPerNode: 2}, apps.ISortConfig{KeysPerPE: 128, BucketWidth: 48, Seed: 77}, isortOutcome{0xf4974f943b86e878, 0xc536ea95d04bd28a, 0x5d6256bc21ce3d83, 68240, 528}},
		{"chaos-32x8", sim.Machine{NumPEs: 32, PEsPerNode: 8}, apps.ISortConfig{KeysPerPE: 128, BucketWidth: 48, Seed: 77}, isortOutcome{0xfd36943065f4c88f, 0xe3ecd38ccfb6dd08, 0x2c9d1dca5ee3738f, 640000, 5120}},
		{"sparse-16x4", sim.Machine{NumPEs: 16, PEsPerNode: 4}, apps.ISortConfig{KeysPerPE: 50, BucketWidth: 1 << 40, Seed: 9}, isortOutcome{0xdb18d54e7b01697, 0xde68345fc98484c3, 0xf53513dae0aaac41, 130880, 1056}},
	} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if got := runISortOutcome(t, c.m, c.cfg); got != c.want {
				t.Errorf("%s at GOMAXPROCS %d: %v, want %v", c.name, procs, got, c.want)
			}
		}
	}
}

// TestISortAllocatesItsBuckets: a dense sort of 8 PEs x 400 000 keys
// allocates little beyond the 25.6 MB its buckets hold - not its input
// (drawn twice, never stored) and not a counting table per PE (shared
// through a pool). Storing the input alone would double the figure.
func TestISortAllocatesItsBuckets(t *testing.T) {
	if testing.Short() {
		t.Skip("3.2 M keys")
	}
	const npes, keys = 8, 400000
	m := sim.Machine{NumPEs: npes, PEsPerNode: npes}
	cfg := apps.ISortConfig{KeysPerPE: keys, BucketWidth: 65536, Seed: 42}
	tc := core.FullTrace()
	tc.Aggregate = true
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := core.Run(core.Options{Machine: m, Trace: tc}, func(rt *actor.Runtime) error {
		_, err := apps.ISort(rt, cfg)
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	buckets := float64(npes * keys * 8)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.5*buckets {
		t.Errorf("allocated %.1f MB for %.1f MB of buckets, want at most 1.5x", got/1e6, buckets/1e6)
	}
}
