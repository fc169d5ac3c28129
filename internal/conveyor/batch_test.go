package conveyor

import (
	"encoding/binary"
	"fmt"
	"testing"

	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// TestPullRunFIFO drives PullRun on a single-PE self-send loop and
// checks run delivery preserves per-pair FIFO order exactly, including
// across pull-ring wrap (runs are clamped at the ring edge, so a
// wrapped backlog arrives as two runs, in order).
func TestPullRunFIFO(t *testing.T) {
	const total = 500
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 8, BufferItems: 16})
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 8)
			var got []uint64
			runs := 0
			drain := func() {
				for {
					items, srcs, n := c.PullRun()
					if n == 0 {
						return
					}
					runs++
					if len(items) != n*8 || len(srcs) != n {
						panic("run view sizes disagree with n")
					}
					for i := 0; i < n; i++ {
						if srcs[i] != 0 {
							panic("bad source in single-PE run")
						}
						got = append(got, binary.LittleEndian.Uint64(items[i*8:]))
					}
				}
			}
			sent := 0
			for sent < total {
				binary.LittleEndian.PutUint64(buf, uint64(sent))
				for !c.Push(buf, 0) {
					c.Advance(false)
					drain()
				}
				sent++
			}
			for c.Advance(true) || c.PendingPulls() > 0 {
				drain()
			}
			drain()
			if len(got) != total {
				panic(fmt.Sprintf("delivered %d items, want %d", len(got), total))
			}
			for i, v := range got {
				if v != uint64(i) {
					panic(fmt.Sprintf("item %d = %d, FIFO order broken", i, v))
				}
			}
			if runs >= total {
				panic(fmt.Sprintf("%d runs for %d items - PullRun never batched", runs, total))
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// pushDrainRunCycle is pushDrainCycle's batched twin: a full buffer of
// self-sends drained through PullRun views.
func pushDrainRunCycle(c *Conveyor, buf []byte) {
	drain := func() {
		for {
			if _, _, n := c.PullRun(); n == 0 {
				return
			}
		}
	}
	for m := 0; m < c.bufItems; m++ {
		for !c.Push(buf, 0) {
			c.Advance(false)
			drain()
		}
	}
	c.Advance(false)
	drain()
	c.Advance(false)
	drain()
}

func TestPullRunZeroAlloc(t *testing.T) {
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 16, BufferItems: 32})
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 16)
			pushDrainRunCycle(c, buf) // warm pools and the pull ring
			allocs := testing.AllocsPerRun(10, func() { pushDrainRunCycle(c, buf) })
			if allocs != 0 {
				t.Errorf("push/PullRun cycle allocated %.1f times per run, want 0", allocs)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}
