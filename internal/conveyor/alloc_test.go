package conveyor

import (
	"sync/atomic"
	"testing"

	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// The message hot path must not allocate: Push/PushSlot encode into
// preallocated aggregation buffers, transfers stage through the PE's NBI
// arena, and delivery goes through the pull ring's flat storage. These
// guards run on a single-PE world so testing.AllocsPerRun (which counts
// process-global allocations) sees only the path under test.

// pushDrainCycle pushes a full buffer of self-sends and drains it:
// aggregation, transfer through the landing zone, ingest, and pulls.
func pushDrainCycle(c *Conveyor, buf []byte) {
	drain := func() {
		for {
			if _, _, ok := c.Pull(); !ok {
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
	// First Advance flushes the full buffer (receive runs before flush,
	// so delivery needs a second round).
	c.Advance(false)
	drain()
	c.Advance(false)
	drain()
}

func TestPushDrainZeroAlloc(t *testing.T) {
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 16, BufferItems: 32})
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 16)
			// Warm the pools to their high-water mark: pull ring growth,
			// the NBI staging arena, backlog free lists.
			pushDrainCycle(c, buf)
			allocs := testing.AllocsPerRun(10, func() { pushDrainCycle(c, buf) })
			if allocs != 0 {
				t.Errorf("push/drain cycle allocated %.1f times per run, want 0", allocs)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPushSlotZeroAlloc(t *testing.T) {
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}},
		func(pe *shmem.PE) {
			c, err := New(pe, Options{ItemBytes: 8, BufferItems: 64})
			if err != nil {
				panic(err)
			}
			drain := func() {
				for {
					if _, _, ok := c.Pull(); !ok {
						return
					}
				}
			}
			step := func() {
				slot, ok := c.PushSlot(0)
				if !ok {
					c.Advance(false)
					drain()
					return
				}
				for i := range slot {
					slot[i] = 0xab
				}
			}
			// Warm up through several full buffer cycles.
			for i := 0; i < 4*64; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(200, step)
			if allocs != 0 {
				t.Errorf("PushSlot path allocated %.3f times per run, want 0", allocs)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// A forward that finds its hop's buffer full and both landing slots
// unconsumed parks in the backlog, and every Advance retries it. The
// retry pass keeps its per-hop "blocked" set on the conveyor, so a PE
// stuck behind slow column peers allocates nothing while it waits. Mesh,
// 10 nodes x 2: PE 0 sends to PE 1's nine column peers through PE 1 (row
// hop, then column hop) while none of them advances - nine blocked hops,
// one more than a map[int]bool holds before it spills to the heap. Every
// PE but PE 1 blocks on a Go channel during the measurement, so
// AllocsPerRun sees PE 1 alone.
func TestBacklogRetryZeroAlloc(t *testing.T) {
	const (
		npes, perNode  = 20, 2
		bufItems, bufs = 4, 6 // per hop: 1 buffer + 2 landing slots in flight, 3 buffers parked
		hops           = npes/perNode - 1
		wantParked     = hops * (bufs - 3) * bufItems
	)
	measured := make(chan struct{})
	var allocs float64
	var delivered atomic.Int64
	err := shmem.Run(cfg(npes, perNode), func(pe *shmem.PE) {
		c, err := New(pe, Options{ItemBytes: 8, BufferItems: bufItems, Topology: TopologyMesh})
		if err != nil {
			panic(err)
		}
		switch pe.Rank() {
		case 0:
			item := make([]byte, 8)
			for dst := 3; dst < npes; dst += perNode {
				for i := 0; i < bufs*bufItems; i++ {
					for !c.Push(item, dst) {
						c.Advance(false)
					}
				}
			}
			for !c.outEmpty() { // until PE 1 has taken every buffer
				c.Advance(false)
			}
		case 1:
			// Everything PE 0 sent is either forwarded or parked.
			for int(c.stats.Routed) != hops*3*bufItems || len(c.routeBacklog) != wantParked {
				c.Advance(false)
			}
			allocs = testing.AllocsPerRun(100, func() { c.Advance(false) })
			if len(c.routeBacklog) != wantParked {
				t.Errorf("backlog went %d -> %d while nobody was receiving", wantParked, len(c.routeBacklog))
			}
			close(measured)
		}
		<-measured
		for more := true; more; {
			more = c.Advance(true)
			for {
				if _, _, ok := c.Pull(); !ok {
					break
				}
				delivered.Add(1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != hops*bufs*bufItems {
		t.Fatalf("delivered %d items, want %d", got, hops*bufs*bufItems)
	}
	if allocs != 0 {
		t.Errorf("an Advance retrying %d parked forwards over %d blocked hops allocated %.1f times, want 0",
			wantParked, hops, allocs)
	}
}
