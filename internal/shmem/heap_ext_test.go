package shmem_test

import (
	"encoding/binary"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// A heap changes shape at the collective Malloc and nowhere else: after
// every Malloc its segments address exactly the break, back to back, and
// no amount of traffic moves or extends them - what lets every access go
// without a lock (DESIGN.md §3). What is allocated beyond the break is the
// last segment's quarter of headroom plus what each earlier segment had
// left when an object did not fit it, which is less than that object.
func TestHeapSizedAtMalloc(t *testing.T) {
	const npes, perNode, rounds = 8, 4, 50
	err := shmem.Run(shmem.Config{Machine: sim.Machine{NumPEs: npes, PEsPerNode: perNode}}, func(pe *shmem.PE) {
		brk := 8
		for _, n := range []int{0, 1, 8, 13, 4096, 0, 7} {
			off := pe.Malloc(n)
			if off != brk {
				t.Errorf("PE %d: Malloc(%d) returned %d, want the old break %d", pe.Rank(), n, off, brk)
			}
			brk += (n + 7) &^ 7
			checkSegments(t, pe, brk, n)
		}

		c, err := conveyor.New(pe, conveyor.Options{ItemBytes: 8, BufferItems: 2})
		if err != nil {
			panic(err)
		}
		heap := pe.HeapSegments()
		if checkSegments(t, pe, -1, 0) <= brk {
			t.Errorf("PE %d: conveyor.New left the break at %d", pe.Rank(), brk)
		}
		// Many buffers through every channel, two-hop routes included.
		item := make([]byte, 8)
		got := 0
		drain := func() {
			for {
				if _, _, ok := c.Pull(); !ok {
					return
				}
				got++
			}
		}
		for i := 0; i < rounds*npes; i++ {
			binary.LittleEndian.PutUint64(item, uint64(i))
			for !c.Push(item, i%npes) {
				c.Advance(false)
				drain()
			}
		}
		for c.Advance(true) {
			drain()
		}
		drain()
		if got != rounds*npes {
			t.Errorf("PE %d received %d items, want %d", pe.Rank(), got, rounds*npes)
		}
		pe.Barrier()
		after := pe.HeapSegments()
		if len(after) != len(heap) {
			t.Fatalf("PE %d: the exchange left %d segments of %d", pe.Rank(), len(after), len(heap))
		}
		for i := range heap {
			if len(after[i]) != len(heap[i]) || cap(after[i]) != cap(heap[i]) || &after[i][0] != &heap[i][0] {
				t.Errorf("PE %d: the exchange moved segment %d (%d bytes at %p -> %d bytes at %p)",
					pe.Rank(), i, len(heap[i]), heap[i], len(after[i]), after[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkSegments asserts the shape of pe's heap after a Malloc(n) that
// left the break at brk (brk < 0: whatever it is) and returns the bytes
// its segments address.
func checkSegments(t *testing.T, pe *shmem.PE, brk, n int) int {
	t.Helper()
	segs := pe.HeapSegments()
	addressable, allocated, stranded := 0, 0, 0
	for i, s := range segs {
		addressable += len(s)
		allocated += cap(s)
		if i < len(segs)-1 {
			stranded += cap(s) - len(s)
			if len(s) == 0 || cap(s)-len(s) >= len(segs[i+1]) {
				t.Errorf("PE %d: segment %d has %d of %d bytes in use, yet the %d of segment %d were put elsewhere",
					pe.Rank(), i, len(s), cap(s), len(segs[i+1]), i+1)
			}
		}
	}
	if brk >= 0 && addressable != brk {
		t.Errorf("PE %d: %d bytes addressable after Malloc(%d), want the break %d", pe.Rank(), addressable, n, brk)
	}
	if allocated > addressable+addressable/4+stranded {
		t.Errorf("PE %d: %d bytes allocated for a break of %d (%d stranded behind full segments), want at most a quarter ahead",
			pe.Rank(), allocated, addressable, stranded)
	}
	return addressable
}
