package actor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"actorprof/internal/fault"
	"actorprof/internal/shmem"
)

// Lost-wake-up and liveness regressions for the parked-progress wait
// points (DESIGN.md §16). Each run has its own hard deadline, so a PE
// asleep on a doorbell nobody rings fails the test in seconds.

func runDeadline(t *testing.T, d time.Duration, c shmem.Config, body func(pe *shmem.PE)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- shmem.Run(c, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("shmem.Run still going after %v: a PE sleeps at a wait point nobody wakes it from", d)
		return nil
	}
}

// awaitPeersAsleep spins on the calling PE until every other PE is
// blocked on its doorbell. Only the caller could wake them, so once true
// it stays true until the caller acts.
func awaitPeersAsleep(pe *shmem.PE) {
	for pe.World().Asleep() < pe.NumPEs()-1 {
		pe.Yield()
	}
}

func TestTwoSelectorsOneTerminatesFirst(t *testing.T) {
	// Selector A terminates while B stays live: PE 0 holds B open, lets
	// the peers fall asleep in their Finish drain loop (A's completed
	// conveyor must no longer keep them awake, B's idle one must let
	// them sleep), then sends a late round on B. The sleepers must wake
	// for the late messages and again for B's termination.
	const npes, n = 4, 40
	sumA := make([]int64, npes)
	sumB := make([]int64, npes)
	stats := make([]shmem.ProgressStats, npes)
	err := runDeadline(t, 30*time.Second, cfg(npes, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{BufferItems: 8})
		a, _ := NewActor(rt, Int64Codec())
		b, _ := NewActor(rt, Int64Codec())
		me := pe.Rank()
		a.Process(0, func(v int64, _ int) { sumA[me] += v })
		b.Process(0, func(v int64, _ int) { sumB[me] += v })
		rt.Finish(func() {
			a.Start()
			b.Start()
			for i := 0; i < n; i++ {
				a.Send(0, 1, (me+i)%npes)
				b.Send(0, 1, (me+i+1)%npes)
			}
			a.Done(0)
			if me == 0 {
				for !a.MailboxComplete(0) {
					a.Progress()
					b.Progress()
				}
				awaitPeersAsleep(pe)
				for dst := 0; dst < npes; dst++ {
					b.Send(0, 1000, dst)
				}
			}
			b.Done(0)
		})
		if !a.Finished() || !b.Finished() {
			panic("selectors not finished after the finish scope")
		}
		stats[me] = pe.ProgressStats()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < npes; pe++ {
		if sumA[pe] != n || sumB[pe] != n+1000 {
			t.Errorf("PE %d handled A=%d B=%d, want %d and %d", pe, sumA[pe], sumB[pe], n, n+1000)
		}
		if pe != 0 && stats[pe].Sleeps == 0 {
			t.Errorf("PE %d never slept while PE 0 held selector B open: %+v", pe, stats[pe])
		}
	}
}

func TestWorkerReachedThroughYieldDoesNotSleep(t *testing.T) {
	// PE 0 declares Done, lets the progress worker run once through
	// rt.Yield(), and then has a barrier to reach; its peers declare Done
	// only after that barrier. A worker that slept inside rt.Yield()
	// would wait for a termination that needs PE 0 at the barrier.
	const npes = 4
	err := runDeadline(t, 30*time.Second, cfg(npes, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{})
		sel, _ := NewActor(rt, Int64Codec())
		sel.Process(0, func(int64, int) {})
		rt.Finish(func() {
			sel.Start()
			if pe.Rank() == 0 {
				sel.Done(0)
				rt.Yield()
				pe.Barrier()
			} else {
				pe.Barrier()
				sel.Done(0)
			}
		})
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// crashWhileAsleep runs body on every PE; the PE `crasher` panics once
// all the others are asleep. It returns, per surviving PE, its
// wait counters and how it aborted.
func crashWhileAsleep(t *testing.T, npes, crasher int, body func(rt *Runtime, sel *Selector[int64])) ([]shmem.ProgressStats, []string) {
	t.Helper()
	stats := make([]shmem.ProgressStats, npes)
	aborts := make([]string, npes)
	err := runDeadline(t, 30*time.Second, cfg(npes, 2), func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{BufferItems: 4})
		sel, _ := NewActor(rt, Int64Codec())
		sel.Process(0, func(int64, int) {})
		if pe.Rank() == crasher {
			awaitPeersAsleep(pe)
			panic(fmt.Sprintf("PE %d crashed while its peers slept", crasher))
		}
		defer func() {
			r := recover()
			stats[pe.Rank()] = pe.ProgressStats()
			aborts[pe.Rank()] = fmt.Sprintf("%T%+v", r, r)
			panic(r)
		}()
		body(rt, sel)
	})
	want := fmt.Sprintf("PE %d panicked", crasher)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("expected the root cause %q, got %v", want, err)
	}
	return stats, aborts
}

func TestCrashWakesIdleWorkers(t *testing.T) {
	// Actor-level twin of conveyor/crash_test.go: the survivors are not
	// spinning but asleep in their Finish drain loop, waiting for a
	// termination the crashed PE will never contribute to.
	const npes, crasher = 4, 2
	stats, aborts := crashWhileAsleep(t, npes, crasher, func(rt *Runtime, sel *Selector[int64]) {
		rt.Finish(func() {
			sel.Start()
			sel.Done(0)
		})
	})
	for pe := 0; pe < npes; pe++ {
		if pe == crasher {
			continue
		}
		if stats[pe].Sleeps == 0 {
			t.Errorf("PE %d was not asleep when PE %d crashed: %+v", pe, crasher, stats[pe])
		}
		if want := fmt.Sprintf("shmem.peerAbort{crashed:%d}", crasher); aborts[pe] != want {
			t.Errorf("PE %d aborted with %s, want %s", pe, aborts[pe], want)
		}
	}
}

func TestCrashWakesBlockedSender(t *testing.T) {
	// PE 0 floods the crasher, which never makes progress: the buffer
	// fills, both landing slots fill, and the Send retry loop goes to
	// sleep waiting for an ack that will never come.
	const npes, crasher = 2, 1
	stats, aborts := crashWhileAsleep(t, npes, crasher, func(rt *Runtime, sel *Selector[int64]) {
		rt.Finish(func() {
			sel.Start()
			for i := 0; i < 1000; i++ {
				sel.Send(0, int64(i), crasher)
			}
			sel.Done(0)
		})
	})
	if stats[0].Sleeps == 0 {
		t.Errorf("the blocked sender was not asleep when PE %d crashed: %+v", crasher, stats[0])
	}
	if want := fmt.Sprintf("shmem.peerAbort{crashed:%d}", crasher); aborts[0] != want {
		t.Errorf("the blocked sender aborted with %s, want %s", aborts[0], want)
	}
}

// yieldSiteCounter wraps an injector and counts, per PE, how often the
// SiteYield preemption point fired. Each hook fires on its PE's own
// goroutine, so the counters need no locking.
type yieldSiteCounter struct {
	inner fault.Injector
	fired []int64
}

func (y *yieldSiteCounter) Decide(pt fault.Point) fault.Decision {
	if pt.Site == fault.SiteYield {
		y.fired[pt.PE]++
	}
	return y.inner.Decide(pt)
}

func TestSiteYieldFiresAtWaitPoints(t *testing.T) {
	// Every Yield fires SiteYield once, as before; every WaitIdle fires
	// it once more. So on a PE that slept, the site fired at least
	// yields + sleeps times - under the chaos plan, whose own extra
	// yields and shrunken buffers must not break the wait points.
	const npes, n = 8, 400
	plan, err := fault.NamedPlan("chaos", 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	counter := &yieldSiteCounter{inner: plan, fired: make([]int64, npes)}
	stats := make([]shmem.ProgressStats, npes)
	handled := make([]int64, npes)
	c := cfg(npes, 4)
	c.Fault = counter
	err = runDeadline(t, 60*time.Second, c, func(pe *shmem.PE) {
		rt := NewRuntime(pe, RuntimeOptions{BufferItems: 8})
		sel, _ := NewActor(rt, Int64Codec())
		me := pe.Rank()
		sel.Process(0, func(int64, int) { handled[me]++ })
		rt.Finish(func() {
			sel.Start()
			// Skewed: PE 0 sends n messages to everyone, the others
			// send nothing and wait for it.
			if me == 0 {
				for i := 0; i < n*npes; i++ {
					sel.Send(0, int64(i), i%npes)
				}
			}
			sel.Done(0)
		})
		stats[me] = pe.ProgressStats()
		rt.Close()
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var slept int64
	for pe := 0; pe < npes; pe++ {
		if handled[pe] != n {
			t.Errorf("PE %d handled %d messages, want %d", pe, handled[pe], n)
		}
		slept += stats[pe].Sleeps
		if min := stats[pe].Yields + stats[pe].Sleeps; counter.fired[pe] < min {
			t.Errorf("PE %d: SiteYield fired %d times, want at least yields+sleeps = %d (%+v)",
				pe, counter.fired[pe], min, stats[pe])
		}
	}
	if slept == 0 {
		t.Error("no PE ever slept: the wait points were not exercised")
	}
}

func TestNestedSendRetryLoopsDoNotSleepOnStaleSweeps(t *testing.T) {
	// Request/response with tiny buffers (the jaccard shape): a probe
	// handler sends two credits, so a blocked credit Send runs further
	// probe handlers from inside its retry loop, whose own Sends block,
	// sleep, wake, ship and push. When they return, the outer loop's
	// failed push is history - it must retry, not sleep on the sweeps the
	// inner loops left behind. The staged teardown (the probe mailbox
	// closes first, handlers drain out of an already completed conveyor)
	// is part of the shape.
	const npes, probes = 8, 300
	for round := 0; round < 10; round++ {
		credits := make([]int64, npes)
		err := runDeadline(t, 60*time.Second, cfg(npes, 4), func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{BufferItems: 4})
			sel, _ := NewSelector(rt, 2, Int64Codec())
			me := pe.Rank()
			sel.Process(0, func(v int64, _ int) {
				owner := int(v) % 2 // two hot owners: their buffers are always full
				sel.Send(1, v, owner)
				sel.Send(1, v, owner)
			})
			sel.Process(1, func(int64, int) { credits[me]++ })
			rt.Finish(func() {
				sel.Start()
				for i := 0; i < probes; i++ {
					sel.Send(0, int64(i+round), (me+i)%npes)
				}
				sel.Done(0)
				for !sel.MailboxComplete(0) {
					sel.Progress()
				}
				sel.Done(1)
			})
			rt.Close()
			pe.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, c := range credits {
			total += c
		}
		if want := int64(2 * npes * probes); total != want {
			t.Fatalf("round %d: %d credits handled, want %d", round, total, want)
		}
	}
}

func TestHandlerSendsOnItsOwnMailboxThroughOneItemBuffers(t *testing.T) {
	// Every first-hop message makes its Process handler send a second
	// hop on the same mailbox, through buffers one item wide: nearly
	// every such Send finds its buffer full and makes progress from
	// inside the handler. That progress must not drain the mailbox whose
	// run the handler is still iterating, yet must keep receiving and
	// acknowledging, or two handlers blocked on each other never return.
	// Main-body sends are sequential among themselves and so are one
	// mailbox's handlers, so each (source, hop) stream must arrive in
	// send order, every message exactly once.
	const npes, firstHops = 4, 200
	for round := 0; round < 5; round++ {
		secondHops := make([]int64, npes)
		err := runDeadline(t, 60*time.Second, cfg(npes, 2), func(pe *shmem.PE) {
			rt := NewRuntime(pe, RuntimeOptions{BufferItems: 1})
			sel, _ := NewActor(rt, PairCodec())
			me := pe.Rank()
			var sent, next [2][npes]int64
			send := func(hop int64, dst int) {
				seq := sent[hop][dst]
				sent[hop][dst]++
				sel.Send(0, Pair{A: hop, B: seq}, dst)
			}
			var handled int
			sel.Process(0, func(m Pair, src int) {
				if m.B != next[m.A][src] {
					panic(fmt.Sprintf("PE %d: hop %d message %d from PE %d arrived where %d was due",
						me, m.A, m.B, src, next[m.A][src]))
				}
				next[m.A][src]++
				if m.A == 0 {
					handled++
					send(1, src)
				} else {
					secondHops[me]++
				}
			})
			rt.Finish(func() {
				sel.Start()
				for i := 0; i < firstHops; i++ {
					send(0, (me+i+round)%npes)
				}
				// Destinations rotate, so every PE is due firstHops first
				// hops, and has sent all its second hops once it handled them.
				for handled < firstHops {
					sel.Progress()
				}
				sel.Done(0)
			})
			rt.Close()
			pe.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		for pe, got := range secondHops {
			if got != firstHops {
				t.Fatalf("round %d: PE %d handled %d second hops, want %d", round, pe, got, firstHops)
			}
		}
	}
}
