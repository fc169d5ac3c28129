package apps

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"actorprof/internal/actor"
	"actorprof/internal/papi"
)

// ISortConfig parameterizes the ISx-style bucketed integer sort.
type ISortConfig struct {
	// KeysPerPE is the number of keys each PE contributes.
	KeysPerPE int
	// BucketWidth is the key range each PE owns: PE p holds bucket
	// [p*BucketWidth, (p+1)*BucketWidth), and keys are drawn uniformly
	// from [0, NumPEs*BucketWidth) - the ISx weak-scaling input.
	BucketWidth int64
	// Seed drives the key generation.
	Seed uint64
}

// Validate reports whether cfg describes a sort on npes PEs: KeysPerPE
// at least 0, BucketWidth positive, and npes times either within an int64.
func (cfg ISortConfig) Validate(npes int) error {
	if npes <= 0 || cfg.KeysPerPE < 0 || cfg.BucketWidth <= 0 ||
		cfg.BucketWidth > math.MaxInt64/int64(npes) || cfg.KeysPerPE > math.MaxInt/npes {
		return fmt.Errorf("apps: bad isort config %+v on %d PEs: want KeysPerPE >= 0, BucketWidth > 0 and PEs times either within int64", cfg, npes)
	}
	return nil
}

// ISortResult reports one PE's view of the sort.
type ISortResult struct {
	// Keys is this PE's bucket, sorted ascending. Placement is
	// deterministic (per-source FIFO into per-source reserved ranges),
	// so the slice is schedule-independent.
	Keys []int64
	// Received is the number of keys this PE's bucket received.
	Received int64
}

// ISort runs the ISx histogram/bucket integer sort as an FA-BSP
// program, the workload of the "Multithreaded Fine-Grained Asynchronous
// BSP for Integer Sorting" paper: each PE draws KeysPerPE uniform keys,
// histograms them by destination bucket, exchanges the per-destination
// counts (the exclusive scan over sources then fixes where every
// source's keys land), redistributes the keys all-to-all through batch
// handlers, and finally sorts its bucket locally. The heavy
// redistribution phase is the batch-dispatch showcase: every delivered
// pull-ring run is one handler invocation over a flat key slice.
func ISort(rt *actor.Runtime, cfg ISortConfig) (ISortResult, error) {
	pe := rt.PE()
	npes := pe.NumPEs()
	if err := cfg.Validate(npes); err != nil {
		return ISortResult{}, err
	}
	me := pe.Rank()
	maxKey := int64(npes) * cfg.BucketWidth

	// Generate this PE's keys and histogram them by destination bucket.
	// No key is kept: the send loop re-seeds the stream and draws the
	// same keys in the same order, so the host holds only the buckets.
	seed := cfg.Seed + uint64(me)*0x9e3779b97f4a7c15
	counts := make([]int64, npes)
	rng := splitmix{state: seed}
	for range cfg.KeysPerPE {
		counts[int64(rng.next()%uint64(maxKey))/cfg.BucketWidth]++
	}
	// keygen + bucket index, per key; nothing is sent in between, so the
	// loop's work is reported as one run.
	rt.WorkN(papi.Work{Ins: 10, LstIns: 2, Cyc: 6}, cfg.KeysPerPE)

	// Exchange the histogram: every PE learns how many keys each source
	// will send it. The counts are one int64 per (src, dst) pair.
	incoming := make([]int64, npes)
	csel, err := actor.NewActor(rt, actor.Int64Codec())
	if err != nil {
		return ISortResult{}, fmt.Errorf("apps: isort count actor: %w", err)
	}
	countWork := papi.Work{Ins: 4, LstIns: 1, Cyc: 3}
	csel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		rt.WorkN(countWork, len(msgs))
		for i, count := range msgs {
			incoming[srcPEs[i]] = count
		}
	})
	rt.Finish(func() {
		csel.Start()
		for dst := 0; dst < npes; dst++ {
			csel.Send(0, counts[dst], dst)
		}
		csel.Done(0)
	})

	// Exclusive scan over sources: keys from src land in
	// recv[offset[src] : offset[src]+incoming[src]], in send order
	// (conveyor delivery is FIFO per pair), which makes the final bucket
	// contents independent of how deliveries interleave.
	var total int64
	cursor := make([]int64, npes)
	for src := 0; src < npes; src++ {
		cursor[src] = total
		total += incoming[src]
	}
	recv := make([]int64, total)

	// All-to-all redistribution: every key to its bucket owner.
	ksel, err := actor.NewActor(rt, actor.Int64Codec())
	if err != nil {
		return ISortResult{}, fmt.Errorf("apps: isort key actor: %w", err)
	}
	keyWork := papi.Work{Ins: 5, LstIns: 2, Cyc: 4}
	ksel.ProcessBatch(0, func(msgs []int64, srcPEs []int) {
		rt.WorkN(keyWork, len(msgs))
		for i, k := range msgs {
			src := srcPEs[i]
			recv[cursor[src]] = k
			cursor[src]++
		}
	})
	rt.Finish(func() {
		ksel.Start()
		rng := splitmix{state: seed}
		for range cfg.KeysPerPE {
			k := int64(rng.next() % uint64(maxKey))
			rt.Work(papi.Work{Ins: 6, LstIns: 1, Cyc: 4}) // owner computation
			ksel.Send(0, k, int(k/cfg.BucketWidth))
		}
		ksel.Done(0)
	})

	// Local sort of the bucket.
	var sortErr error
	rt.Segment("local-sort", func() {
		sortErr = sortBucket(recv, me, cfg.BucketWidth)
		rt.Work(papi.Work{Ins: int64(len(recv)) * 8, LstIns: int64(len(recv)) * 2, Cyc: int64(len(recv)) * 10})
	})
	if sortErr != nil {
		return ISortResult{}, sortErr
	}
	return ISortResult{Keys: recv, Received: total}, nil
}

// sortBucket sorts PE me's bucket in place after checking that every
// key lies in [me*width, (me+1)*width). A dense bucket - the ISx input,
// about as many keys as the bucket is wide - takes ISx's own counting
// sort over that range (one pass to count, one to write back); a sparse
// one, where the count table would dwarf the keys, a comparison sort.
func sortBucket(keys []int64, me int, width int64) error {
	lo, hi := int64(me)*width, int64(me+1)*width
	for _, k := range keys {
		if k < lo || k >= hi {
			return fmt.Errorf("apps: isort PE %d received key %d outside bucket [%d, %d)", me, k, lo, hi)
		}
	}
	if width > 4*int64(len(keys))+1024 || len(keys) > math.MaxInt32 {
		slices.Sort(keys)
		return nil
	}
	table, _ := countTables.Get().(*[]int32)
	if table == nil || int64(len(*table)) < width {
		t := make([]int32, width)
		table = &t
	}
	counts := (*table)[:width]
	for _, k := range keys {
		counts[k-lo]++
	}
	i := 0
	for v, n := range counts {
		for ; n > 0; n-- {
			keys[i] = lo + int64(v)
			i++
		}
		counts[v] = 0
	}
	countTables.Put(table)
	return nil
}

// countTables lends sortBucket its all-zero count tables, so a run holds
// about one per host core instead of one per PE.
var countTables sync.Pool

// ISortSerial computes the reference bucket contents: all keys every PE
// would generate under cfg, sorted, one bucket per PE rank (ISort's result
// exactly). In linear time: one draw of the keys counts each bucket, a
// second puts every key in its bucket's range of one array, and a counting
// pass (a comparison sort if the bucket is sparse) sorts each bucket, in
// O(npes+BucketWidth) words beside that array. A bucket is a capped view
// of it, nil if empty. It panics with cfg.Validate(npes)'s error, if any.
func ISortSerial(npes int, cfg ISortConfig) [][]int64 {
	if err := cfg.Validate(npes); err != nil {
		panic(err)
	}
	maxKey, width := uint64(npes)*uint64(cfg.BucketWidth), cfg.BucketWidth
	// starts[b] is bucket b's count, then its end, then (filled back to front) its start.
	all, starts := make([]int64, npes*cfg.KeysPerPE), make([]int, npes)
	for pass := 0; pass < 2; pass++ {
		for pe := 0; pe < npes; pe++ {
			rng := splitmix{state: cfg.Seed + uint64(pe)*0x9e3779b97f4a7c15}
			for range cfg.KeysPerPE {
				k := int64(rng.next() % maxKey)
				if b := k / width; pass == 0 {
					starts[b]++
				} else {
					starts[b]--
					all[starts[b]] = k
				}
			}
		}
		for b := 1; pass == 0 && b < npes; b++ {
			starts[b] += starts[b-1]
		}
	}
	buckets := make([][]int64, npes)
	var counts []int
	for b, end := npes-1, len(all); b >= 0; b, end = b-1, starts[b] {
		keys, lo := all[starts[b]:end:end], int64(b)*width
		switch {
		case len(keys) == 0:
			continue
		case width > 4*int64(len(keys))+1024:
			slices.Sort(keys)
		default:
			if counts == nil {
				counts = make([]int, width)
			}
			for _, k := range keys {
				counts[k-lo]++
			}
			i := 0
			for v, n := range counts {
				for j := range n {
					keys[i+j] = lo + int64(v)
				}
				i, counts[v] = i+n, 0
			}
		}
		buckets[b] = keys
	}
	return buckets
}
