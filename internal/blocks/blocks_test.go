package blocks

import (
	"slices"
	"testing"
)

// rec stands in for a trace record with a slice field: what Flatten
// hands over must carry the very slices that were pushed.
type rec struct {
	id   int
	tail []int64
}

func TestBufBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, Len - 1, Len, Len + 1, 3*Len + 7} {
		var b Buf[rec]
		for i := 0; i < n; i++ {
			b.Push(rec{id: i, tail: []int64{int64(i)}})
		}
		if b.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, b.Len())
		}
		out := b.Flatten()
		if n == 0 {
			if out != nil {
				t.Fatalf("empty buffer flattened to %v, want nil", out)
			}
			continue
		}
		if len(out) != n || cap(out) != n {
			t.Fatalf("n=%d: Flatten() has len %d cap %d, want exact size", n, len(out), cap(out))
		}
		for i, r := range out {
			if r.id != i || len(r.tail) != 1 || r.tail[0] != int64(i) {
				t.Fatalf("n=%d: out[%d] = %+v", n, i, r)
			}
		}
		if b.Len() != 0 || b.Flatten() != nil {
			t.Fatalf("n=%d: buffer not empty after Flatten", n)
		}
	}
}

func TestBufRestartsAfterFlatten(t *testing.T) {
	var b Buf[int]
	for round, n := range []int{Len + 3, 0, 5, 2 * Len} {
		want := make([]int, n)
		for i := range want {
			want[i] = round*1_000_000 + i
			b.Push(want[i])
		}
		if got := b.Flatten(); !slices.Equal(got, want) {
			t.Fatalf("round %d: flattened %d values, want %d (or order differs)", round, len(got), len(want))
		}
	}
}

// A Push allocates only when it starts a block.
func TestBufPushAllocs(t *testing.T) {
	var b Buf[[5]int]
	b.Push([5]int{}) // the first block
	if allocs := testing.AllocsPerRun(Len/2, func() { b.Push([5]int{1}) }); allocs != 0 {
		t.Errorf("Push inside a block allocated %.2f times per call", allocs)
	}
}
