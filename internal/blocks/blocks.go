// Package blocks holds what a run's records are kept in as it goes.
//
// The APBF block kernel (apbf.go) codes and decodes the blocks of the
// column-coded binary trace format, and Log (log.go) is the one per-PE
// recorder that seals rows into them: the trace collector a PE's sends
// (package trace), the schedule recorder a PE's events, which the what-if
// engines read a block at a time (package sim). A block is Len rows.
//
// Buf is the append-only record buffer behind the trace collector's
// physical records: values land once, in fixed-size blocks, and leave
// once when the run ends, as Flatten's exact-size slice. A growing slice re-copies every element each
// time it doubles, and at the recorders' volumes (hundreds of thousands
// of records per run) that re-copying - not the recording - was the cost
// of being profiled. A Buf never moves a value it has accepted until
// Flatten.
package blocks

// Len is the number of values per block, and of rows per APBF block as
// the writers code them. At 1024 a block of the widest
// record (trace.PhysicalRecord, 40 bytes) is 40 KiB, so a PE that records
// a handful of values pays for a handful of pages, while the per-block
// allocation is amortised over a thousand appends.
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

// Len returns the number of values pushed since the last Flatten.
func (b *Buf[T]) Len() int { return len(b.full)*Len + len(b.cur) }

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
