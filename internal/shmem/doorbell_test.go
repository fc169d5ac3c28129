package shmem

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runDeadline is Run with a hard deadline, so a lost wake-up fails in
// seconds instead of at go test's ten-minute default.
func runDeadline(t *testing.T, d time.Duration, cfg Config, body func(pe *PE)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(cfg, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Run still going after %v: a PE sleeps on a doorbell nobody rings (or spins forever)", d)
		return nil
	}
}

// awaitAsleep spins (on the calling PE) until PE rank is blocked on its
// doorbell. The asleep flag is raised just before the PE blocks.
func awaitAsleep(pe *PE, rank int) {
	for !pe.world.pes[rank].bell.asleep.Load() {
		pe.Yield()
	}
}

func TestWaitUntilSleepsUntilForeignWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(pe *PE, off int)
	}{
		{"put", func(pe *PE, off int) { pe.PutInt64(0, off, 7) }},
		{"copylocal", func(pe *PE, off int) { pe.CopyLocal(0, off, []byte{7, 0, 0, 0, 0, 0, 0, 0}) }},
		{"fetchadd", func(pe *PE, off int) { pe.AtomicFetchAddInt64(0, off, 7) }},
		{"nbi+quiet", func(pe *PE, off int) {
			pe.PutNBI(0, off, []byte{7, 0, 0, 0, 0, 0, 0, 0})
			pe.Quiet()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats ProgressStats
			err := runDeadline(t, 20*time.Second, Config{Machine: machine(2, 2)}, func(pe *PE) {
				off := pe.Malloc(8)
				if pe.Rank() == 0 {
					if got := pe.WaitUntilInt64(off, CmpEq, 7); got != 7 {
						t.Errorf("WaitUntilInt64 returned %d, want 7", got)
					}
					stats = pe.ProgressStats()
				} else {
					awaitAsleep(pe, 0)
					tc.write(pe, off)
				}
				pe.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Sleeps == 0 || stats.Wakes != stats.Sleeps {
				t.Errorf("waiter stats %+v: want it to have slept and been woken every time", stats)
			}
		})
	}
}

func TestWaitUntilSeesWriteThatPrecedesTheWait(t *testing.T) {
	// The write lands before the waiter ever polls: no ring will follow,
	// so the first poll must see the value rather than sleep on it.
	err := runDeadline(t, 20*time.Second, Config{Machine: machine(2, 2)}, func(pe *PE) {
		off := pe.Malloc(8)
		if pe.Rank() == 1 {
			pe.PutInt64(0, off, 3)
		}
		pe.Barrier()
		if pe.Rank() == 0 {
			pe.WaitUntilInt64(off, CmpEq, 3)
			if s := pe.ProgressStats(); s.Sleeps != 0 {
				t.Errorf("slept %d times on a condition that already held", s.Sleeps)
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitIdleSleepsOnlyWhenEveryPollerVouches(t *testing.T) {
	err := runDeadline(t, 20*time.Second, Config{Machine: machine(2, 2)}, func(pe *PE) {
		off := pe.Malloc(8)
		if pe.Rank() == 0 {
			// Every refusal below must return at once; a wrong sleep
			// would hang (PE 1 writes only on request) and trip the
			// deadline.
			if pe.WaitIdle() {
				t.Error("slept with no poller open: nothing vouched for idleness")
			}
			a, b := pe.OpenPoller(), pe.OpenPoller()
			if pe.WaitIdle() {
				t.Error("slept before any poller swept")
			}
			a.Begin()
			a.End(true)
			if pe.WaitIdle() {
				t.Error("slept while poller b had never swept")
			}
			b.Begin()
			b.End(false)
			if pe.WaitIdle() {
				t.Error("slept after a sweep that found work")
			}
			// Both idle, but a foreign write lands after the sweeps
			// began: the epoch moved, so the sweeps are stale.
			a.Begin()
			b.Begin()
			pe.StoreInt64Local(off, 1) // own stores do not ring
			a.End(true)
			b.End(true)
			pe.PutInt64(1, off, 1) // ask PE 1 for a write
			pe.WaitUntilInt64(off, CmpEq, 2)
			if pe.WaitIdle() {
				t.Error("slept on sweeps that began before a foreign write")
			}
			// A sweep that found nothing, then local work: the claim is
			// withdrawn until the loop sweeps again.
			a.Begin()
			b.Begin()
			a.End(true)
			b.End(true)
			b.Touch()
			if pe.WaitIdle() {
				t.Error("slept on an idle sweep that was touched by local work afterwards")
			}
			// Closing a poller stops it from keeping the PE awake.
			b.Close()
			b.Close()
			a.Begin()
			a.End(true)
			pe.PutInt64(1, off, 3) // PE 1: ring me once I sleep
			if !pe.WaitIdle() {
				t.Error("did not sleep with the only open poller idle at the current epoch")
			}
			a.Close()
		} else {
			pe.WaitUntilInt64(off, CmpEq, 1)
			pe.PutInt64(0, off, 2)
			pe.WaitUntilInt64(off, CmpEq, 3)
			awaitAsleep(pe, 0)
			pe.World().RingAll()
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOwnStoresDoNotRing(t *testing.T) {
	run(t, 1, 1, func(pe *PE) {
		off := pe.Malloc(16)
		before := pe.bell.epoch.Load()
		pe.StoreInt64Local(off, 1)
		pe.PutInt64(0, off+8, 2)
		pe.AtomicFetchAddInt64(0, off, 1)
		if after := pe.bell.epoch.Load(); after != before {
			t.Errorf("writes to the PE's own heap moved its epoch %d -> %d", before, after)
		}
	})
}

func TestCrashWakesEverySleeper(t *testing.T) {
	// PE 0 panics only once every peer is blocked on its doorbell. Each
	// must wake, abort with peerAbort naming PE 0, and Run must report
	// the root cause.
	const npes = 4
	var aborted [npes]atomic.Int64
	for i := range aborted {
		aborted[i].Store(-1)
	}
	err := runDeadline(t, 20*time.Second, Config{Machine: machine(npes, 2)}, func(pe *PE) {
		off := pe.Malloc(8)
		if pe.Rank() == 0 {
			for r := 1; r < npes; r++ {
				awaitAsleep(pe, r)
			}
			panic("crash while the peers sleep")
		}
		defer func() {
			r := recover()
			if a, ok := r.(peerAbort); ok {
				aborted[pe.Rank()].Store(a.crashed)
			}
			panic(r)
		}()
		pe.WaitUntilInt64(off, CmpNe, 0) // only PE 0 would have written it
	})
	if err == nil || !strings.Contains(err.Error(), "PE 0 panicked") {
		t.Fatalf("expected the PE 0 panic as root cause, got %v", err)
	}
	for r := 1; r < npes; r++ {
		if got := aborted[r].Load(); got != 0 {
			t.Errorf("PE %d: peerAbort crashed rank = %d, want 0 (-1: it did not abort with peerAbort)", r, got)
		}
	}
}

func TestYieldsAreCounted(t *testing.T) {
	run(t, 2, 2, func(pe *PE) {
		before := pe.ProgressStats().Yields
		for i := 0; i < 5; i++ {
			pe.Yield()
		}
		if got := pe.ProgressStats().Yields - before; got != 5 {
			t.Errorf("5 Yield calls counted as %d", got)
		}
	})
}
