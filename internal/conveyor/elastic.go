package conveyor

import (
	"encoding/binary"
	"fmt"

	"actorprof/internal/shmem"
)

// Elastic is a variable-size-item conveyor: bale's "elastic" variant
// with the epush/epull API. Applications whose messages vary in length
// (strings, edge lists, k-mers) use it instead of padding everything to
// the worst case.
//
// The implementation layers framing over a fixed-size Conveyor: each
// elastic item is split into one or more fixed-size cells
// [totalLen u32][fragment...]; the first cell of an item carries the
// total length, and a destination reassembles consecutive cells from the
// same source (Conveyors guarantees per-pair ordering, which is exactly
// the property the paper's Section IV-E discusses).
type Elastic struct {
	c *Conveyor
	// maxItem is the largest payload EPush accepts.
	maxItem int
	// frag is the per-cell fragment capacity.
	frag int
	// cellBuf is the reusable staging cell EPush encodes fragments
	// into; Push copies it into the outgoing buffer before returning.
	cellBuf []byte
	// assembling[src] accumulates fragments of a partially received
	// item from each source.
	assembling map[int]*partial
	// ready holds fully reassembled items.
	readyItems [][]byte
	readySrcs  []int
}

type partial struct {
	want int
	data []byte
}

// ElasticOptions configures an elastic conveyor.
type ElasticOptions struct {
	// MaxItemBytes is the largest payload EPush accepts. Required.
	MaxItemBytes int
	// CellBytes is the underlying fixed cell size (default 64; smaller
	// cells waste less on tiny items, larger cells fragment less).
	CellBytes int
	// BufferItems / Topology / OnPhysical pass through to the
	// underlying conveyor.
	BufferItems int
	Topology    Topology
	OnPhysical  func(kind SendKind, bufBytes, src, dst int)
}

// NewElastic creates an elastic conveyor across all PEs (collective).
func NewElastic(pe *shmem.PE, opts ElasticOptions) (*Elastic, error) {
	if opts.MaxItemBytes <= 0 {
		return nil, fmt.Errorf("conveyor: MaxItemBytes must be positive, got %d", opts.MaxItemBytes)
	}
	cell := opts.CellBytes
	if cell == 0 {
		cell = 64
	}
	if cell < 8 {
		return nil, fmt.Errorf("conveyor: CellBytes must be at least 8, got %d", cell)
	}
	c, err := New(pe, Options{
		ItemBytes:   cell,
		BufferItems: opts.BufferItems,
		Topology:    opts.Topology,
		OnPhysical:  opts.OnPhysical,
	})
	if err != nil {
		return nil, err
	}
	return &Elastic{
		c:          c,
		maxItem:    opts.MaxItemBytes,
		frag:       cell - 4,
		cellBuf:    make([]byte, cell),
		assembling: make(map[int]*partial),
	}, nil
}

// EPush offers a variable-size item (possibly empty) for delivery to PE
// dst. Like Push it returns false when buffer space is exhausted and
// the caller must EAdvance; a partially pushed item is never left in
// flight (all-or-nothing).
func (e *Elastic) EPush(item []byte, dst int) bool {
	if len(item) > e.maxItem {
		panic(fmt.Sprintf("conveyor: EPush item of %d bytes exceeds MaxItemBytes %d",
			len(item), e.maxItem))
	}
	cells := 1 + (len(item)+e.frag-1)/e.frag
	if len(item) == 0 {
		cells = 1
	}
	// All-or-nothing: ensure capacity for every cell of this item at
	// the next hop before pushing any. The underlying buffer toward one
	// hop drains only through Advance, so checking remaining capacity
	// once is sound within this call. The check runs against the
	// generation's *effective* capacity, which a fault injector may
	// have shrunk below BufferItems.
	ob := e.c.outFor(dst)
	if e.c.capOf(ob)-ob.n < cells {
		if cells > e.c.bufItems {
			panic(fmt.Sprintf("conveyor: item needs %d cells but buffers hold %d; raise BufferItems or CellBytes",
				cells, e.c.bufItems))
		}
		// Not enough room: ship the partial buffer now. Advance alone
		// would not help - it only flushes *full* buffers before the
		// endgame - so a multi-cell item behind an almost-full buffer
		// would otherwise starve. If the double-buffer window is shut,
		// the caller advances and retries.
		if ob.n > 0 {
			e.c.tryTransfer(ob)
		}
		// A fresh generation whose fault-shrunk capacity cannot hold
		// the item is widened (never past BufferItems): the same seed
		// would shrink it identically on every retry, so without this
		// the reservation could never succeed.
		e.c.reserveCap(ob, ob.n+cells)
		if e.c.capOf(ob)-ob.n < cells {
			return false
		}
	}
	cell := e.cellBuf
	remaining := item
	first := true
	for {
		for i := range cell {
			cell[i] = 0
		}
		n := len(remaining)
		if n > e.frag {
			n = e.frag
		}
		if first {
			binary.LittleEndian.PutUint32(cell, uint32(len(item)))
		} else {
			// Continuation cells carry a sentinel length so a decoding
			// mismatch is caught instead of silently mis-framing.
			binary.LittleEndian.PutUint32(cell, 0xffffffff)
		}
		copy(cell[4:], remaining[:n])
		if !e.c.Push(cell, dst) {
			// Cannot happen: capacity was reserved above.
			panic("conveyor: elastic push lost reserved capacity")
		}
		remaining = remaining[n:]
		first = false
		if len(remaining) == 0 {
			break
		}
	}
	return true
}

// EPull returns the next fully reassembled item and its original source.
func (e *Elastic) EPull() (item []byte, src int, ok bool) {
	e.reassemble()
	if len(e.readyItems) == 0 {
		return nil, 0, false
	}
	item, src = e.readyItems[0], e.readySrcs[0]
	e.readyItems[0] = nil
	e.readyItems = e.readyItems[1:]
	e.readySrcs = e.readySrcs[1:]
	return item, src, true
}

// reassemble drains the underlying conveyor's cells into items.
func (e *Elastic) reassemble() {
	for {
		cell, src, ok := e.c.Pull()
		if !ok {
			return
		}
		hdr := binary.LittleEndian.Uint32(cell)
		p := e.assembling[src]
		if p == nil {
			if hdr == 0xffffffff {
				panic(fmt.Sprintf("conveyor: continuation cell from PE %d without a header cell", src))
			}
			p = &partial{want: int(hdr)}
			e.assembling[src] = p
		} else if hdr != 0xffffffff {
			panic(fmt.Sprintf("conveyor: header cell from PE %d inside an unfinished item", src))
		}
		need := p.want - len(p.data)
		if need > e.frag {
			need = e.frag
		}
		p.data = append(p.data, cell[4:4+need]...)
		if len(p.data) == p.want {
			e.readyItems = append(e.readyItems, p.data)
			e.readySrcs = append(e.readySrcs, src)
			delete(e.assembling, src)
		}
	}
}

// EAdvance makes progress; semantics follow Conveyor.Advance. The caller
// should keep calling EPull afterwards.
func (e *Elastic) EAdvance(done bool) bool {
	live := e.c.Advance(done)
	e.reassemble()
	return live || len(e.readyItems) > 0 || len(e.assembling) > 0
}

// Complete reports full termination including reassembly.
func (e *Elastic) Complete() bool {
	return e.c.Complete() && len(e.assembling) == 0 && len(e.readyItems) == 0
}

// Stats exposes the underlying conveyor's counters (cell granularity).
func (e *Elastic) Stats() Stats { return e.c.Stats() }
