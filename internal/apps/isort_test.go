package apps

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sortBucket picks a counting sort or slices.Sort from the bucket's
// density; either way the result must be what slices.Sort gives, and a
// key outside the bucket must come back as the "outside bucket" error
// (never as an index into the count table).
func TestSortBucketMatchesSlicesSort(t *testing.T) {
	type shape struct {
		name  string
		n     int
		width int64
	}
	shapes := []shape{
		{"empty-narrow", 0, 7},
		{"empty-wide", 0, 1 << 20},
		{"one-key", 1, 1},
		{"width-one-all-equal", 500, 1},
		{"isx-dense", 3000, 2048},
		{"mostly-empty-slots", 40, 1000},
		// 4*len+1024 is the last width that still counts.
		{"at-threshold", 100, 4*100 + 1024},
		{"just-above-threshold", 100, 4*100 + 1025},
		{"sparse", 10, 1 << 30},
	}
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		shapes = append(shapes, shape{"random", rnd.Intn(2000), 1 + rnd.Int63n(12000)})
	}
	for _, sh := range shapes {
		for _, me := range []int{0, 5} {
			lo := int64(me) * sh.width
			keys := make([]int64, sh.n)
			for i := range keys {
				keys[i] = lo + rnd.Int63n(sh.width)
			}
			if sh.n > 2 && rnd.Intn(4) == 0 {
				for i := range keys { // all-equal keys, at the bucket's top edge
					keys[i] = lo + sh.width - 1
				}
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			if err := sortBucket(keys, me, sh.width); err != nil {
				t.Fatalf("%s (n=%d width=%d me=%d): %v", sh.name, sh.n, sh.width, me, err)
			}
			if !slices.Equal(keys, want) {
				t.Fatalf("%s (n=%d width=%d me=%d): result differs from slices.Sort", sh.name, sh.n, sh.width, me)
			}

			// One stray key, on either side of the bucket, dense or sparse.
			if sh.n == 0 {
				continue
			}
			for _, stray := range []int64{lo - 1, lo + sh.width} {
				keys[rnd.Intn(sh.n)] = stray
				err := sortBucket(keys, me, sh.width)
				if err == nil || !strings.Contains(err.Error(), "outside bucket") {
					t.Fatalf("%s (n=%d width=%d me=%d): stray key %d gave %v, want the outside-bucket error",
						sh.name, sh.n, sh.width, me, stray, err)
				}
			}
		}
	}
}

// ISortSerial cuts the buckets out of one sorted array; each must hold
// exactly the keys of its range, and together all of them.
func TestISortSerialBucketsPartitionTheKeys(t *testing.T) {
	for _, cfg := range []ISortConfig{
		{KeysPerPE: 300, BucketWidth: 64, Seed: 3},
		{KeysPerPE: 2, BucketWidth: 1 << 20, Seed: 4}, // most buckets empty
		{KeysPerPE: 0, BucketWidth: 8, Seed: 5},
	} {
		const npes = 8
		buckets := ISortSerial(npes, cfg)
		if len(buckets) != npes {
			t.Fatalf("%+v: %d buckets, want %d", cfg, len(buckets), npes)
		}
		total := 0
		for b, keys := range buckets {
			total += len(keys)
			if !slices.IsSorted(keys) {
				t.Errorf("%+v: bucket %d is not sorted", cfg, b)
			}
			for _, k := range keys {
				if k/cfg.BucketWidth != int64(b) {
					t.Fatalf("%+v: bucket %d holds key %d of bucket %d", cfg, b, k, k/cfg.BucketWidth)
				}
			}
		}
		if total != npes*cfg.KeysPerPE {
			t.Errorf("%+v: buckets hold %d keys, want %d", cfg, total, npes*cfg.KeysPerPE)
		}
	}
}
