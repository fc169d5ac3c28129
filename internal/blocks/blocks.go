// Package blocks provides the append-only record buffer behind the trace
// collector and the schedule recorder: values land once, in fixed-size
// blocks, and leave once when the run ends: Flatten's exact-size slice, or
// Each for an owner that expands them into a wider form.
//
// A growing slice re-copies every element each time it doubles, and at
// the collector's volumes (millions of 8-40 byte records per run) that
// re-copying - not the recording - was the cost of being profiled. A Buf
// never moves a value it has accepted until Flatten.
package blocks

// Len is the number of values per block. At 1024 a block of the widest
// record (trace.PhysicalRecord, 40 bytes; a packed send is 8 + 16) is
// 40 KiB, so a PE that records a handful of values pays for a handful of
// pages, while the per-block allocation is amortised over a thousand appends.
const Len = 1024

// Buf is an append-only buffer of T. The zero value is empty and ready
// to use; it allocates nothing until the first Push. Not safe for
// concurrent use: one goroutine owns a Buf until it calls Flatten.
type Buf[T any] struct {
	full [][]T // filled blocks, each exactly Len long
	cur  []T   // the block being filled; cap is Len once allocated
}

// Push appends v. It allocates one block every Len calls and never
// copies a previously pushed value.
func (b *Buf[T]) Push(v T) {
	if len(b.cur) == cap(b.cur) {
		b.grow()
	}
	n := len(b.cur)
	b.cur = b.cur[:n+1]
	b.cur[n] = v
}

// grow retires the full current block and starts a new one. Kept out of
// Push so that Push stays small enough to inline.
func (b *Buf[T]) grow() {
	if b.cur != nil {
		b.full = append(b.full, b.cur)
	}
	b.cur = make([]T, 0, Len)
}

// Last returns the most recently pushed value for the owner to amend, or
// nil when the buffer is empty (cur is empty only then: grow precedes a Push).
func (b *Buf[T]) Last() *T {
	if n := len(b.cur); n > 0 {
		return &b.cur[n-1]
	}
	return nil
}

// Len returns the number of values pushed since the last Flatten.
func (b *Buf[T]) Len() int { return len(b.full)*Len + len(b.cur) }

// Each calls f on every buffered run of values, in push order.
func (b *Buf[T]) Each(f func([]T)) {
	for _, blk := range b.full {
		f(blk)
	}
	if len(b.cur) > 0 {
		f(b.cur)
	}
}

// Flatten returns everything pushed so far as one exact-size slice (nil
// when nothing was pushed) and empties the buffer: the one copy a value
// sees in its life.
func (b *Buf[T]) Flatten() []T {
	n := b.Len()
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, blk := range b.full {
		out = append(out, blk...)
	}
	out = append(out, b.cur...)
	*b = Buf[T]{}
	return out
}
