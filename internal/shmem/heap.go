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
//
// A symmetric heap changes shape here and nowhere else: each PE grows its
// own heap to exactly its new break before the implied barrier, so once
// any PE holds the offset every heap backs it, and between two Mallocs no
// heap slice moves. No access path allocates; one outside the break is a
// bug in the caller and crashes (see outOfBreak). Only the capacity runs
// ahead of the break, by a quarter: apps.Permutation builds a conveyor
// per round for a thousand rounds and must not copy its heap at each.
func (p *PE) Malloc(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("shmem: Malloc with negative size %d on PE %d", n, p.rank))
	}
	// Every PE computes the same offsets from the same collective call
	// sequence (real SHMEM trusts the program); offset 0 stays free so
	// that 0 can mean "nil".
	off := max(p.allocCursor, 8)
	brk := align(off + n)
	p.allocCursor = brk
	// Under the lock: a peer still finishing the previous phase may be
	// writing the part of the heap that already exists. Bytes between
	// length and capacity are zero: nothing writes past a length that
	// never shrinks.
	p.heapMu.Lock()
	if brk <= cap(p.heap) {
		p.heap = p.heap[:brk]
	} else {
		grown := make([]byte, brk, brk+brk/4)
		copy(grown, p.heap)
		p.heap = grown
	}
	p.heapMu.Unlock()

	// shmem_malloc is a collective with an implicit barrier: no PE may
	// proceed until all PEs have allocated (and thus grown their heaps).
	p.Barrier()
	return off
}

// heapOf returns the PE handle for rank r, panicking on bad ranks.
func (p *PE) heapOf(r int) *PE {
	if r < 0 || r >= p.world.NumPEs() {
		panic(fmt.Sprintf("shmem: PE %d addressed invalid rank %d (npes=%d)",
			p.rank, r, p.world.NumPEs()))
	}
	return p.world.pes[r]
}

// outOfBreak crashes PE p for accessing [offset, offset+n) of t's heap,
// a range not inside t's break. Called with t.heapMu held, it releases it
// first: the peers aborting behind the crash must not queue on that lock.
func (p *PE) outOfBreak(t *PE, offset, n int) {
	brk := len(t.heap)
	t.heapMu.Unlock()
	panic(fmt.Sprintf("shmem: PE %d accessed [%d,%d) of PE %d's heap (break %d)",
		p.rank, offset, offset+n, t.rank, brk))
}

// rawWrite copies data into PE target's heap at offset, with locking.
// It performs the data movement only; cost accounting is the caller's
// responsibility. A foreign write rings the target's doorbell once the
// data is in place, in case the target sleeps waiting for it.
func (p *PE) rawWrite(target, offset int, data []byte) {
	t := p.heapOf(target)
	t.heapMu.Lock()
	if offset < 0 || offset > len(t.heap)-len(data) {
		p.outOfBreak(t, offset, len(data))
	}
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
	if offset < 0 || offset > len(t.heap)-len(buf) {
		p.outOfBreak(t, offset, len(buf))
	}
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
