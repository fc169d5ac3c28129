package shmem

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The FA-BSP contract checked at run time (DESIGN.md §5, §16): every
// barrier generation is one collective of one kind, a PE's end is a
// collective too, a world whose every PE is blocked fails, and the calls
// that wait for peers refuse to run inside a message handler. Each run
// has a deadline, so a check that is missing fails in seconds instead of
// hanging.

// wantErr fails the test unless err holds every part.
func wantErr(t *testing.T, err error, parts ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("Run returned no error, want one naming %q", parts)
	}
	for _, p := range parts {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("error %q does not name %q", err, p)
		}
	}
}

func TestMismatchedCollectiveFails(t *testing.T) {
	// A lone Barrier on PE 1 used to pair with the first barrier inside
	// the other PEs' reduction, which then read a slot PE 1 never wrote.
	err := runDeadline(t, 20*time.Second, Config{Machine: machine(8, 4)}, func(pe *PE) {
		pe.Barrier()
		if pe.Rank() == 1 {
			pe.Barrier()
			return
		}
		pe.AllReduceInt64(OpSum, 1)
	})
	wantErr(t, err, "shmem: collective #2: ", "PE 1 in Barrier", "in AllReduceInt64")
	if strings.Contains(err.Error(), "aborted") {
		t.Errorf("the mismatch is reported as a secondary error: %v", err)
	}
}

func TestMismatchedCollectiveNamesEveryPE(t *testing.T) {
	// PE 0 arrives last, so every other PE's kind is on record when the
	// mismatch is found.
	err := runDeadline(t, 20*time.Second, Config{Machine: machine(4, 2)}, func(pe *PE) {
		if pe.Rank() == 0 {
			for pe.World().barr.arrivedNow() < 3 {
				pe.Yield()
			}
			pe.Malloc(8)
			return
		}
		pe.Barrier()
	})
	wantErr(t, err, "shmem: collective #1: PE 0 in Malloc, PEs 1-3 in Barrier")
}

// arrivedNow is how many PEs wait in the open generation.
func (b *barrier) arrivedNow() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arrived
}

func TestDivergedCollectiveFails(t *testing.T) {
	// A collective only some PEs reach: the others return, and a PE's
	// end is a collective of its own kind.
	for _, tc := range []struct {
		name string
		body func(pe *PE)
		want []string
	}{
		{"rank-guarded Barrier", func(pe *PE) {
			if pe.Rank() == 3 {
				pe.Barrier()
			}
		}, []string{"collective #1", "PE 3 in Barrier", "returned"}},
		{"rank-derived AllReduceInt64", func(pe *PE) {
			if half := pe.Rank() * 2; half > 4 {
				pe.AllReduceInt64(OpSum, 1)
			}
		}, []string{"collective #1", "in AllReduceInt64", "returned"}},
		{"AllocInt64Array in a rank-bounded loop", func(pe *PE) {
			for i := 0; i < pe.Rank(); i++ {
				AllocInt64Array(pe, 8)
			}
		}, []string{"collective #1", "PE 0 returned", "in Malloc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runDeadline(t, 20*time.Second, Config{Machine: machine(8, 4)}, tc.body)
			wantErr(t, err, tc.want...)
		})
	}
}

func TestDeadlockIsReported(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(pe *PE, off int)
		want []string
	}{
		{"all asleep", func(pe *PE, off int) {
			pe.WaitUntilInt64(off, CmpEq, 1)
		}, []string{"shmem: deadlock, every PE is blocked; collective #2: PEs 0-3 asleep"}},
		{"asleep against a barrier", func(pe *PE, off int) {
			if pe.Rank() == 2 {
				pe.WaitUntilInt64(off, CmpEq, 1)
			}
			pe.Barrier()
		}, []string{"collective #2: PEs 0-1 in Barrier, PE 2 asleep, PE 3 in Barrier"}},
		{"asleep against returned", func(pe *PE, off int) {
			if pe.Rank() == 0 {
				pe.WaitUntilInt64(off, CmpEq, 1)
			}
		}, []string{"collective #2: PE 0 asleep, PEs 1-3 returned"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runDeadline(t, 20*time.Second, Config{Machine: machine(4, 2)}, func(pe *PE) {
				tc.body(pe, pe.Malloc(8))
			})
			wantErr(t, err, tc.want...)
		})
	}
}

func TestNoFalseDeadlockWhileTokensFly(t *testing.T) {
	// Every PE sleeps and wakes its neighbour in a ring, over and over:
	// at each hand-over all PEs but the ringer are asleep, so a wake-up
	// counted late would read as a deadlock.
	const npes, rounds = 4, 500
	err := runDeadline(t, 60*time.Second, Config{Machine: machine(npes, 2)}, func(pe *PE) {
		off := pe.Malloc(8)
		me := pe.Rank()
		for r := int64(1); r <= rounds; r++ {
			if me != 0 || r > 1 {
				pe.WaitUntilInt64(off, CmpGe, r)
			}
			next := r
			if me == npes-1 {
				next++ // PE 0's next round
			}
			pe.PutInt64((me+1)%npes, off, next)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOnlyTheRingThatEndsASleepLeavesAToken(t *testing.T) {
	// A ring that lands between a PE's flag and its recheck stops the
	// sleep; it must leave no token behind, or a later sleep would wake
	// on it with nobody to un-count it, and the world would read as
	// deadlocked with that PE running.
	run(t, 1, 1, func(pe *PE) {
		b, w := &pe.bell, pe.world
		b.asleep.Store(flagged)
		pe.rouse()
		if b.asleep.Load() != awake || len(b.wake) != 0 {
			t.Errorf("a ring on a flagged PE left state %d and %d token(s)", b.asleep.Load(), len(b.wake))
		}
		b.asleep.Store(sleeping)
		w.barr.blocked.Add(1)
		pe.rouse()
		if b.asleep.Load() != awake || len(b.wake) != 1 || w.barr.blocked.Load() != 0 {
			t.Errorf("a ring on a sleeping PE left state %d, %d token(s), %d blocked", b.asleep.Load(), len(b.wake), w.barr.blocked.Load())
		}
		<-b.wake
	})
}

func TestCallsThatWaitPanicInAHandler(t *testing.T) {
	for _, tc := range []struct {
		call string
		do   func(pe *PE, a Int64Array)
	}{
		{"Barrier", func(pe *PE, _ Int64Array) { pe.Barrier() }},
		{"AllReduceInt64", func(pe *PE, _ Int64Array) { pe.AllReduceInt64(OpSum, 1) }},
		{"Malloc", func(pe *PE, _ Int64Array) { pe.Malloc(8) }},
		{"Malloc", func(pe *PE, _ Int64Array) { AllocInt64Array(pe, 1) }},
		{"WaitUntilInt64", func(pe *PE, a Int64Array) { pe.WaitUntilInt64(a.off, CmpEq, 0) }},
	} {
		run(t, 2, 2, func(pe *PE) {
			a := AllocInt64Array(pe, 1)
			want := fmt.Sprintf("shmem: PE %d called %s inside a message handler", pe.Rank(), tc.call)
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Errorf("%s in a handler: recovered %v, want %q", tc.call, r, want)
					}
				}()
				pe.SetInHandler(true)
				defer pe.SetInHandler(false)
				tc.do(pe, a)
			}()
			// Quiet stays legal: a handler's Send makes progress.
			pe.SetInHandler(true)
			pe.Quiet()
			pe.SetInHandler(false)
			pe.Barrier()
		})
	}
}
