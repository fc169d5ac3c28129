package conveyor

import "encoding/binary"

// pullRing is a FIFO of delivered fixed-size items backed by one flat
// byte buffer plus a parallel source array. Delivery copies each item
// payload into the next slot and Pull hands out a borrowed view of the
// oldest slot, so the per-message delivery path allocates nothing once
// the ring has grown to the run's high-water mark.
type pullRing struct {
	itemBytes int
	data      []byte // len(srcs) slots of itemBytes each
	srcs      []int32
	head      int // slot index of the oldest item
	n         int // items queued
}

func (r *pullRing) init(itemBytes int) { r.itemBytes = itemBytes }

// grow doubles the ring, unwrapping the queued items to the front.
func (r *pullRing) grow() {
	newCap := 2 * len(r.srcs)
	if newCap == 0 {
		newCap = 64
	}
	data := make([]byte, newCap*r.itemBytes)
	srcs := make([]int32, newCap)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.srcs) {
			j -= len(r.srcs)
		}
		copy(data[i*r.itemBytes:(i+1)*r.itemBytes], r.data[j*r.itemBytes:(j+1)*r.itemBytes])
		srcs[i] = r.srcs[j]
	}
	r.data, r.srcs, r.head = data, srcs, 0
}

// push copies payload (itemBytes long) and its original source into the
// ring.
func (r *pullRing) push(payload []byte, src int) {
	if r.n == len(r.srcs) {
		r.grow()
	}
	slot := r.head + r.n
	if slot >= len(r.srcs) {
		slot -= len(r.srcs)
	}
	moveItem(r.data[slot*r.itemBytes:(slot+1)*r.itemBytes], payload)
	r.srcs[slot] = int32(src)
	r.n++
}

// popRun removes the longest contiguous run of queued items starting at
// the head and returns borrowed views of its payload bytes (n items of
// itemBytes each) and the parallel source array. The views obey the same
// lifetime rule as pop's: valid only until further items are delivered.
// A wrapped queue yields its tail on the next call.
func (r *pullRing) popRun() (items []byte, srcs []int32, n int) {
	if r.n == 0 {
		return nil, nil, 0
	}
	n = r.n
	if rem := len(r.srcs) - r.head; n > rem {
		n = rem
	}
	slot := r.head
	r.head += n
	if r.head == len(r.srcs) {
		r.head = 0
	}
	r.n -= n
	return r.data[slot*r.itemBytes : (slot+n)*r.itemBytes], r.srcs[slot : slot+n], n
}

// pop removes the oldest item and returns a view of its slot. The view
// stays intact until the ring wraps back around to the slot, which
// cannot happen before further items are delivered; callers must copy
// or decode it before making more conveyor progress.
func (r *pullRing) pop() (item []byte, src int, ok bool) {
	if r.n == 0 {
		return nil, 0, false
	}
	slot := r.head
	r.head++
	if r.head == len(r.srcs) {
		r.head = 0
	}
	r.n--
	return r.data[slot*r.itemBytes : (slot+1)*r.itemBytes], int(r.srcs[slot]), true
}

// moveItem is copy(dst, src) for two slices of one length, with the
// 8-byte item the built-in codecs overwhelmingly carry (and the 16-byte
// wire record it travels as) moved as words: a variable-length copy is a
// call into runtime.memmove, which cost more than the bytes it moved.
func moveItem(dst, src []byte) {
	switch len(src) {
	case 8:
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
	case 16:
		binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:]))
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
	default:
		copy(dst, src)
	}
}
