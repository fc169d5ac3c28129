package shmem

import (
	"encoding/binary"
	"fmt"
)

// align rounds n up to an 8-byte boundary so that symmetric objects never
// share a word, keeping the Int64 accessors self-consistent.
func align(n int) int { return (n + 7) &^ 7 }

// Malloc is the collective symmetric allocator (shmem_malloc): every PE
// must call it the same number of times with the same sizes, and all PEs
// receive the same heap offset. The returned offset addresses n bytes of
// zeroed storage in every PE's heap.
func (p *PE) Malloc(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("shmem: Malloc with negative size %d on PE %d", n, p.rank))
	}
	// The first PE through extends the break pointer; everyone else
	// validates nothing (real SHMEM trusts the program). Growth of each
	// heap happens lazily under the heap lock in ensure().
	p.world.allocMu.Lock()
	if p.world.brk == 0 {
		p.world.brk = 8 // offset 0 is reserved so that 0 can mean "nil"
	}
	// Each PE calls Malloc; only one extension per collective call must
	// happen. Track per-PE allocation cursors.
	if p.allocCursor == 0 {
		p.allocCursor = 8
	}
	off := p.allocCursor
	p.allocCursor = align(p.allocCursor + n)
	if p.allocCursor > p.world.brk {
		p.world.brk = p.allocCursor
	}
	p.world.allocMu.Unlock()

	// shmem_malloc is a collective with an implicit barrier: no PE may
	// proceed until all PEs have allocated (and thus grown their heaps).
	p.Barrier()
	return off
}

// allocCursor is kept on the PE (not the world) so that every PE computes
// identical offsets independently, as with a real symmetric heap.
// (Declared here, near Malloc, for readability.)

// ensure grows the heap (under lock) so offset+size is addressable.
func (p *PE) ensure(offset, size int) {
	need := offset + size
	if need <= len(p.heap) {
		return
	}
	grown := make([]byte, align(need*2))
	copy(grown, p.heap)
	p.heap = grown
}

// heapOf returns the PE handle for rank r, panicking on bad ranks.
func (p *PE) heapOf(r int) *PE {
	if r < 0 || r >= p.world.NumPEs() {
		panic(fmt.Sprintf("shmem: PE %d addressed invalid rank %d (npes=%d)",
			p.rank, r, p.world.NumPEs()))
	}
	return p.world.pes[r]
}

// rawWrite copies data into PE target's heap at offset, with locking.
// It performs the data movement only; cost accounting is the caller's
// responsibility. A foreign write rings the target's doorbell once the
// data is in place, in case the target sleeps waiting for it.
func (p *PE) rawWrite(target, offset int, data []byte) {
	t := p.heapOf(target)
	t.heapMu.Lock()
	t.ensure(offset, len(data))
	copy(t.heap[offset:], data)
	t.heapMu.Unlock()
	if t != p {
		t.ring()
	}
}

// rawRead copies from PE target's heap at offset into buf, with locking.
func (p *PE) rawRead(target, offset int, buf []byte) {
	t := p.heapOf(target)
	t.heapMu.Lock()
	t.ensure(offset, len(buf))
	copy(buf, t.heap[offset:offset+len(buf)])
	t.heapMu.Unlock()
}

// LoadInt64 reads an int64 from PE target's heap. When target is this PE
// or a same-node PE this is the moral equivalent of dereferencing
// shmem_ptr; polling loops use it. No clock charge is applied: polling
// costs are charged by the caller (see sim.CostModel.PollCycles).
func (p *PE) LoadInt64(target, offset int) int64 {
	var b [8]byte
	p.rawRead(target, offset, b[:])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// StoreInt64Local writes an int64 into this PE's own heap (a plain local
// store, no cost).
func (p *PE) StoreInt64Local(offset int, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	p.rawWrite(p.rank, offset, b[:])
}

// LoadBytesLocal reads n bytes from this PE's own heap into buf.
func (p *PE) LoadBytesLocal(offset int, buf []byte) {
	p.rawRead(p.rank, offset, buf)
}

// StoreBytesLocal writes data into this PE's own heap.
func (p *PE) StoreBytesLocal(offset int, data []byte) {
	p.rawWrite(p.rank, offset, data)
}
