package shmem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"
)

// align rounds n up to an 8-byte boundary so that symmetric objects never
// share a word, keeping the Int64 accessors self-consistent.
func align(n int) int { return (n + 7) &^ 7 }

// segment is one piece of a symmetric heap: the bytes at heap offsets
// [base, base+len(data)). Its array is allocated once, 8-aligned, with
// capacity ahead of its length, and never reallocated.
type segment struct {
	base int
	data []byte
}

// heapView is an immutable snapshot of a heap: segments in offset order,
// covering [0, brk) without gaps. Malloc publishes a new one; the access
// paths load whichever is current and touch nothing else of the PE.
type heapView struct {
	segs []segment
	brk  int
}

// Malloc is the collective symmetric allocator (shmem_malloc): every PE
// must call it the same number of times with the same sizes, and all PEs
// receive the same heap offset. The returned offset addresses n bytes of
// zeroed storage in every PE's heap.
//
// A symmetric heap changes shape here and nowhere else, and it only ever
// gains bytes: each PE extends its own heap to exactly its new break
// before the implied barrier, so once any PE holds the offset every heap
// backs it. Nothing that exists moves - a peer still finishing the
// previous phase may be writing it, and there is no lock to stop it: an
// allocation that fits the last segment's capacity reslices it, one that
// does not opens a new segment (an object never spans two) whose capacity
// runs a quarter of the break ahead, so apps.Permutation's thousand
// conveyors open a few dozen. No access path allocates; one outside the
// break is a bug in the caller and crashes (see span).
func (p *PE) Malloc(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("shmem: Malloc with negative size %d on PE %d", n, p.rank))
	}
	// Every PE computes the same offsets from the same collective call
	// sequence (real SHMEM trusts the program); offset 0 stays free so
	// that 0 can mean "nil".
	h := p.heap.Load()
	off := max(h.brk, 8)
	brk := align(off + n)
	segs := h.segs
	if last := len(segs) - 1; last >= 0 && brk-segs[last].base <= cap(segs[last].data) {
		segs = slices.Clone(segs) // a published view is immutable
		segs[last].data = segs[last].data[:brk-segs[last].base]
	} else {
		// Bytes between length and capacity are zero: nothing writes past
		// a length that never shrinks.
		segs = append(slices.Clip(segs), segment{h.brk, make([]byte, brk-h.brk, brk-h.brk+brk/4)})
	}
	p.heap.Store(&heapView{segs, brk})

	// shmem_malloc is a collective with an implicit barrier: no PE may
	// proceed until all PEs have allocated (and thus extended their heaps).
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

// span returns the n bytes at offset of PE target's heap, as it stands:
// it takes no lock and the bytes never move. DESIGN.md §3 has the rule
// that makes this sound - an 8-byte access at an 8-aligned offset is one
// atomic word (see word); anything else is a plain copy, only ever read
// by a peer that first observed a word written after it. A range that is
// not inside the break, or lies across two segments (two Mallocs'
// objects), is a bug in the caller and crashes PE p.
func (p *PE) span(target, offset, n int) []byte {
	t := p.heapOf(target)
	h := t.heap.Load()
	for i := len(h.segs) - 1; i >= 0; i-- {
		if s := &h.segs[i]; offset >= s.base {
			if rel := offset - s.base; n <= len(s.data)-rel {
				return s.data[rel : rel+n]
			}
			break
		}
	}
	panic(fmt.Sprintf("shmem: PE %d accessed [%d,%d) of PE %d's heap (break %d)",
		p.rank, offset, offset+n, t.rank, h.brk))
}

// word returns the heap word at offset of PE target's heap for the
// sync/atomic functions: the package's one unsafe cast. A word access at
// an offset that is not 8-aligned is a bug in the caller, not a slower
// kind of access, and crashes like one outside the break. (The host is
// taken to be little-endian: a word's bytes are the LittleEndian encoding
// the byte-wise accessors read and write.)
func (p *PE) word(target, offset int) *int64 {
	b := p.span(target, offset, 8)
	w := unsafe.Pointer(&b[0])
	if offset&7 != 0 || uintptr(w)&7 != 0 {
		panic(fmt.Sprintf("shmem: PE %d accessed the word at misaligned offset %d of PE %d's heap",
			p.rank, offset, target))
	}
	return (*int64)(w)
}

// rawWrite copies data into PE target's heap at offset. It performs the
// data movement only; cost accounting is the caller's responsibility. A
// foreign write rings the target's doorbell once the data is in place, in
// case the target sleeps waiting for it.
func (p *PE) rawWrite(target, offset int, data []byte) {
	if len(data) == 8 && offset&7 == 0 {
		atomic.StoreInt64(p.word(target, offset), int64(binary.LittleEndian.Uint64(data)))
	} else {
		copy(p.span(target, offset, len(data)), data)
	}
	if target != p.rank {
		p.world.pes[target].ring()
	}
}

// rawRead copies from PE target's heap at offset into buf.
func (p *PE) rawRead(target, offset int, buf []byte) {
	if len(buf) == 8 && offset&7 == 0 {
		binary.LittleEndian.PutUint64(buf, uint64(atomic.LoadInt64(p.word(target, offset))))
	} else {
		copy(buf, p.span(target, offset, len(buf)))
	}
}

// LoadInt64 reads an int64 from PE target's heap. When target is this PE
// or a same-node PE this is the moral equivalent of dereferencing
// shmem_ptr; polling loops use it. No clock charge is applied: polling
// costs are charged by the caller (see sim.CostModel.PollCycles).
func (p *PE) LoadInt64(target, offset int) int64 {
	return atomic.LoadInt64(p.word(target, offset))
}

// StoreInt64Local writes an int64 into this PE's own heap (a plain local
// store, no cost).
func (p *PE) StoreInt64Local(offset int, v int64) {
	atomic.StoreInt64(p.word(p.rank, offset), v)
}

// LoadBytesLocal reads n bytes from this PE's own heap into buf.
func (p *PE) LoadBytesLocal(offset int, buf []byte) {
	p.rawRead(p.rank, offset, buf)
}

// StoreBytesLocal writes data into this PE's own heap.
func (p *PE) StoreBytesLocal(offset int, data []byte) {
	p.rawWrite(p.rank, offset, data)
}
