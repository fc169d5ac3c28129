package conveyor

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"actorprof/internal/shmem"
)

// A PE's pushes reach the termination board only when it declares done
// (one add of Stats.Pushed, before it counts itself in donePEs). The
// worst case for that ordering is a PE that does all its pushing after
// every other PE is done and asleep: until it declares done the board's
// pushed total knows nothing of its items and only donePEs holds
// termination open, and the moment it does declare done the items still
// in its buffers must already be on the board.
func TestLatePusherHoldsTerminationOpen(t *testing.T) {
	// 2 nodes x 4: the late PE's items cross a row hop and a column hop.
	// Three rounds into buffers of two flush once per peer before done
	// and leave one item per buffer for the endgame flush.
	const npes, perNode, late, rounds = 8, 4, 0, 3
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var lateDone atomic.Bool
			got := make([]int, npes)    // items pulled, by receiving PE
			early := make([]bool, npes) // completed before the late PE was done
			sleeps := make([]int64, npes)
			done := make(chan error, 1)
			go func() {
				done <- shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
					c, err := New(pe, Options{ItemBytes: 8, BufferItems: 2})
					if err != nil {
						panic(err)
					}
					me := pe.Rank()
					pull := func() {
						for {
							if _, src, ok := c.Pull(); !ok {
								break
							} else if src != late {
								panic(fmt.Sprintf("PE %d pulled an item from PE %d, which pushed none", me, src))
							}
							got[me]++
						}
					}
					if me == late {
						// Only this PE can wake the others once they sleep.
						for pe.World().Asleep() < npes-1 {
							pe.Yield()
						}
						item := make([]byte, 8)
						for r := 0; r < rounds; r++ {
							for dst := 0; dst < npes; dst++ {
								for !c.Push(item, dst) {
									c.Advance(false)
									pull()
								}
							}
						}
						lateDone.Store(true)
					}
					for c.Advance(true) {
						pull()
						pe.WaitIdle()
					}
					early[me] = !lateDone.Load()
					pull()
					sleeps[me] = pe.ProgressStats().Sleeps
					pe.Barrier()
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("conveyor never completed: the late PE's pushes did not reach the board, or a sleeper was not woken")
			}
			for pe := 0; pe < npes; pe++ {
				if early[pe] {
					t.Errorf("PE %d completed before PE %d had declared done", pe, late)
				}
				if got[pe] != rounds {
					t.Errorf("PE %d pulled %d of the late PE's items, want %d", pe, got[pe], rounds)
				}
				if pe != late && sleeps[pe] == 0 {
					t.Errorf("PE %d never slept: the run did not exercise the wake-up path", pe)
				}
			}
		})
	}
}
