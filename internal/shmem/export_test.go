package shmem

// Heap exposes the PE's symmetric heap to the package's external tests
// (heap_ext_test.go drives it through a conveyor, which this package
// cannot import).
func (p *PE) Heap() []byte {
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	return p.heap
}
