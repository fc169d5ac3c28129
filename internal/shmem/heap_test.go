package shmem

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A symmetric heap is exactly as large as the collective Mallocs made it.
// An access outside it is a bug in the caller - an index computed from the
// wrong table, an off-by-one on the last word - and must crash the PE that
// made it instead of quietly growing (or, for a read, allocating!) the
// target's heap and carrying on with a zero. So must an access inside the
// break that lies across two segments - two Mallocs' objects happen to be
// neighbours, nothing more - and a word access at an offset that is not a
// word's: without a lock it would be a torn read, not a slow one.
func TestAccessOutsideBreakCrashes(t *testing.T) {
	// Two Malloc(16) on every PE; the second does not fit the first
	// segment's quarter of headroom, so [8,24) and [24,40) are two segments.
	const npes, brk = 4, 8 + 16 + 16
	misaligned := func(off, target int) string {
		return fmt.Sprintf("shmem: PE 1 accessed the word at misaligned offset %d of PE %d's heap", off, target)
	}
	cases := []struct {
		name   string
		off, n int
		do     func(pe *PE, off int)
		want   string // when not the out-of-break message
	}{
		{"load past the break", 4096, 8, func(pe *PE, off int) { pe.LoadInt64(2, off) }, ""},
		{"load straddling the break", brk - 7, 8, func(pe *PE, off int) { pe.LoadInt64(2, off) }, ""},
		{"put one word past the break", brk, 8, func(pe *PE, off int) { pe.PutInt64(2, off, 1) }, ""},
		{"nbi put completed by quiet", brk - 4, 16, func(pe *PE, off int) { pe.PutNBI(2, off, make([]byte, 16)); pe.Quiet() }, ""},
		{"get at a negative offset", -8, 8, func(pe *PE, off int) { pe.GetInt64(2, off) }, ""},
		{"fetch-add past the break", brk, 8, func(pe *PE, off int) { pe.AtomicFetchAddInt64(2, off, 1) }, ""},
		{"put across two segments", 16, 16, func(pe *PE, off int) { pe.Put(2, off, make([]byte, 16)) }, ""},
		{"get across two segments", 20, 8, func(pe *PE, off int) { pe.Get(2, off, make([]byte, 8)) }, ""},
		{"misaligned load", 12, 8, func(pe *PE, off int) { pe.LoadInt64(2, off) }, misaligned(12, 2)},
		{"misaligned local store", 9, 8, func(pe *PE, off int) { pe.StoreInt64Local(off, 1) }, misaligned(9, 1)},
		{"misaligned get", 28, 8, func(pe *PE, off int) { pe.GetInt64(2, off) }, misaligned(28, 2)},
		{"misaligned fetch-add", 15, 8, func(pe *PE, off int) { pe.AtomicFetchAddInt64(2, off, 1) }, misaligned(15, 2)},
		{"misaligned wait", 10, 8, func(pe *PE, off int) { pe.WaitUntilInt64(off, CmpNe, 0) }, misaligned(10, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var target *PE
			// PE 0 waits in a barrier, PEs 2 and 3 sleep on their doorbells;
			// PE 1's crash must reach all three.
			err := runDeadline(t, 20*time.Second, Config{Machine: machine(npes, 2)}, func(pe *PE) {
				word := pe.Malloc(16)
				pe.Malloc(16)
				switch pe.Rank() {
				case 0:
					pe.Barrier()
				case 1:
					target = pe.world.pes[2]
					pe.LoadInt64(2, brk-8)         // the last word is inside
					pe.Put(2, 20, make([]byte, 4)) // and so is a copy up to a segment's end
					awaitAsleep(pe, 2)
					awaitAsleep(pe, 3)
					tc.do(pe, tc.off)
					t.Errorf("the access returned")
					pe.PutInt64(2, word, 1)
					pe.PutInt64(3, word, 1)
					pe.Barrier()
				default:
					pe.WaitUntilInt64(word, CmpNe, 0)
					pe.Barrier()
				}
			})
			want := tc.want
			if want == "" {
				want = fmt.Sprintf("shmem: PE 1 accessed [%d,%d) of PE 2's heap (break %d)", tc.off, tc.off+tc.n, brk)
			}
			if err == nil || !strings.Contains(err.Error(), "PE 1 panicked") || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run returned %v, want PE 1's panic %q as the root cause", err, want)
			}
			if h := target.heap.Load(); h.brk != brk || len(h.segs) != 2 {
				t.Errorf("the access left PE 2's heap at %d bytes in %d segments, want its break %d in 2", h.brk, len(h.segs), brk)
			}
		})
	}
}

// A heap never moves: the word a peer is about to write is where it was
// however many Mallocs later, and a thousand of them open few segments
// (apps.Permutation builds a conveyor per round; every access walks the
// segment list).
func TestHeapNeverMoves(t *testing.T) {
	run(t, 2, 2, func(pe *PE) {
		first := pe.Malloc(24)
		w := pe.word(pe.rank, first+8)
		pe.StoreInt64Local(first+8, 42+int64(pe.rank))
		sizes := []int{0, 8, 13, 200, 4096, 1, 72, 30000}
		for i := 0; i < 1000; i++ {
			off := pe.Malloc(sizes[i%len(sizes)])
			pe.LoadBytesLocal(off, make([]byte, sizes[i%len(sizes)])) // every byte of it is addressable
		}
		if now := pe.word(pe.rank, first+8); now != w || *now != 42+int64(pe.rank) {
			t.Errorf("PE %d: the word at %d was at %p and is at %p holding %d", pe.rank, first+8, w, now, *now)
		}
		if n := len(pe.heap.Load().segs); n > 40 {
			t.Errorf("PE %d: 1000 Mallocs opened %d segments, want most of them to reslice", pe.rank, n)
		}
	})
}

// No write is lost to a Malloc: PE 1 extends its heap - opening a new
// segment every round - before the Malloc's barrier, while PE 0, not yet
// there, is still writing PE 1's first object. Nothing orders the two but
// that the bytes PE 0 writes are never copied anywhere; a heap that grew
// by copying would drop the writes that land in the old array after the
// copy.
func TestMallocLosesNoWrite(t *testing.T) {
	const rounds, writes = 24, 500
	run(t, 2, 2, func(pe *PE) {
		counter := pe.Malloc(8)
		size := 64
		var v int64
		for r := 0; r < rounds; r++ {
			if pe.rank == 0 {
				for i := 0; i < writes; i++ {
					v++
					pe.PutInt64(1, counter, v)
				}
			}
			segs := len(pe.heap.Load().segs)
			pe.Malloc(size) // PE 1 is here, growing, while PE 0 writes
			if len(pe.heap.Load().segs) == segs {
				t.Errorf("round %d: Malloc(%d) resliced; the test wants a new segment", r, size)
			}
			size += size/2 + 8 // outgrows the quarter of headroom every time
			if got := pe.LoadInt64(1, counter); got != int64((r+1)*writes) {
				t.Errorf("PE %d, round %d: PE 1's counter reads %d, want PE 0's last write %d", pe.rank, r, got, (r+1)*writes)
			}
			pe.Barrier() // nobody writes round r+1 before everybody has read round r
		}
	})
}
