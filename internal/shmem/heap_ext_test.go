package shmem_test

import (
	"encoding/binary"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
)

// A heap changes shape at the collective Malloc and nowhere else: after
// every Malloc it is exactly as long as the break, and no amount of
// traffic moves it - the precondition for ever reading it without heapMu
// (ROADMAP item 4b).
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
			if got := len(pe.Heap()); got != brk {
				t.Errorf("PE %d: heap is %d bytes after Malloc(%d), want its break %d", pe.Rank(), got, n, brk)
			}
		}

		c, err := conveyor.New(pe, conveyor.Options{ItemBytes: 8, BufferItems: 2})
		if err != nil {
			panic(err)
		}
		heap := pe.Heap()
		if len(heap) <= brk {
			t.Errorf("PE %d: conveyor.New left the heap at %d bytes", pe.Rank(), len(heap))
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
		if after := pe.Heap(); len(after) != len(heap) || &after[0] != &heap[0] {
			t.Errorf("PE %d: the exchange moved the heap (%d bytes at %p -> %d bytes at %p)",
				pe.Rank(), len(heap), &heap[0], len(after), &after[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
