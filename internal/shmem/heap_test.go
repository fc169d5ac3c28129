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
// target's heap and carrying on with a zero.
func TestAccessOutsideBreakCrashes(t *testing.T) {
	const npes, brk = 4, 8 + 16 // one Malloc(16) on every PE
	cases := []struct {
		name   string
		off, n int
		do     func(pe *PE, off int)
	}{
		{"load past the break", 4096, 8, func(pe *PE, off int) { pe.LoadInt64(2, off) }},
		{"load straddling the break", brk - 7, 8, func(pe *PE, off int) { pe.LoadInt64(2, off) }},
		{"put one word past the break", brk, 8, func(pe *PE, off int) { pe.PutInt64(2, off, 1) }},
		{"nbi put completed by quiet", brk - 4, 16, func(pe *PE, off int) { pe.PutNBI(2, off, make([]byte, 16)); pe.Quiet() }},
		{"get at a negative offset", -8, 8, func(pe *PE, off int) { pe.GetInt64(2, off) }},
		{"fetch-add past the break", brk, 8, func(pe *PE, off int) { pe.AtomicFetchAddInt64(2, off, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var target *PE
			// PE 0 waits in a barrier, PEs 2 and 3 sleep on their doorbells;
			// PE 1's crash must reach all three.
			err := runDeadline(t, 20*time.Second, Config{Machine: machine(npes, 2)}, func(pe *PE) {
				word := pe.Malloc(16)
				switch pe.Rank() {
				case 0:
					pe.Barrier()
				case 1:
					target = pe.world.pes[2]
					pe.LoadInt64(2, brk-8) // the last word is inside
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
			want := fmt.Sprintf("shmem: PE 1 accessed [%d,%d) of PE 2's heap (break %d)", tc.off, tc.off+tc.n, brk)
			if err == nil || !strings.Contains(err.Error(), "PE 1 panicked") || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run returned %v, want PE 1's panic %q as the root cause", err, want)
			}
			if got := len(target.heap); got != brk {
				t.Errorf("the access left PE 2's heap at %d bytes, want its break %d", got, brk)
			}
		})
	}
}
