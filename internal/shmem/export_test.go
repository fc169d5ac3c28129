package shmem

// HeapSegments exposes the PE's symmetric heap to the package's external
// tests (heap_ext_test.go drives it through a conveyor, which this
// package cannot import): its segments in offset order, each with the
// capacity it was allocated with.
func (p *PE) HeapSegments() [][]byte {
	var out [][]byte
	for _, s := range p.heap.Load().segs {
		out = append(out, s.data)
	}
	return out
}
