package shmem

import "fmt"

// Int64Array is a typed view over a symmetric allocation: every PE holds
// len elements at the same heap offset, the idiomatic shape of SHMEM
// programs (symmetric tables, counters, signal arrays). Methods mirror
// the OpenSHMEM typed RMA calls. An Int64Array value is per-PE (it wraps
// that PE's handle) but addresses the whole symmetric object. It is how
// an application reaches the symmetric heap: every index is checked, and
// the view exposes no raw offset, which is the transport's API.
type Int64Array struct {
	pe  *PE
	off int
	n   int
}

// AllocInt64Array performs a collective symmetric allocation of n int64
// elements (zeroed) on every PE.
func AllocInt64Array(pe *PE, n int) Int64Array {
	if n < 0 {
		panic(fmt.Sprintf("shmem: AllocInt64Array with negative length %d", n))
	}
	off := pe.Malloc(n * 8)
	return Int64Array{pe: pe, off: off, n: n}
}

// Len returns the per-PE element count.
func (a Int64Array) Len() int { return a.n }

func (a Int64Array) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("shmem: index %d out of range [0,%d)", i, a.n))
	}
}

// Get reads element i of this PE's own copy.
func (a Int64Array) Get(i int) int64 {
	a.check(i)
	return a.pe.LoadInt64(a.pe.Rank(), a.off+8*i)
}

// Set writes element i of this PE's own copy.
func (a Int64Array) Set(i int, v int64) {
	a.check(i)
	a.pe.StoreInt64Local(a.off+8*i, v)
}

// AddRemote atomically adds delta to element i of PE target's copy and
// returns the previous value (shmem_int64_atomic_fetch_add).
func (a Int64Array) AddRemote(target, i int, delta int64) int64 {
	a.check(i)
	return a.pe.AtomicFetchAddInt64(target, a.off+8*i, delta)
}

// Local snapshots this PE's copy into a fresh slice.
func (a Int64Array) Local() []int64 {
	out := make([]int64, a.n)
	for i := range out {
		out[i] = a.Get(i)
	}
	return out
}
