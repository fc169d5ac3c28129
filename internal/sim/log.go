package sim

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"actorprof/internal/blocks"
)

// PELog is one PE's recorded event sequence. Only the owning PE's
// goroutine appends during the run; the log is read-only afterwards.
//
// A recorded log holds its events in a blocks.Log of two columns, kind
// and arg, whose sealed blocks a shard of a trace directory holds as they
// are (DESIGN.md §14). What is the schedule's own is the instruction-run
// merge, the barrier index and the first event Validate refuses. Every
// reader takes the events through one walk, Walk's Cursor, which decodes
// a block at a time.
type PELog struct {
	// Skew is the PE's charge-inflation percent (fault-injected slow
	// PE); replay applies the same SkewCharge arithmetic.
	Skew int64

	log   blocks.Log // kinds and args
	bars  []int32    // the block each barrier is in, in log order (blocks.Log.Block's i)
	badAt int        // 1 + the index in the log of the first event Validate refuses; 0 for none
	bad   [2]int64   // that event's kind and arg
}

// Append records one event. An EvInstr that follows an EvInstr of the
// same per-message instruction count extends it into one InstrRun, priced
// everywhere as its messages one by one; any other event ends the run. A
// full block is sealed only when an event does not extend its last row,
// so a run merges across a block boundary as it does inside a block.
func (l *PELog) Append(kind EventKind, arg int64) {
	if c, n := l.log.Filling(); kind == EvInstr && n > 0 && c[0][n-1] == int64(EvInstr) && c[1][n-1] >= 0 && arg >= 0 {
		last := &c[1][n-1]
		ins, n := InstrRunParts(*last)
		if more, m := InstrRunParts(arg); more == ins && n+m <= math.MaxInt32 {
			*last = (n+m)<<32 | ins // InstrRun(ins, n+m), its bounds just checked
			return
		}
	}
	l.push(int64(kind), arg)
}

// push adds a row to the open block, sealing it first when it is full.
func (l *PELog) push(kind, arg int64) {
	if _, n := l.log.Filling(); n == blocks.Len {
		l.log.Seal()
	}
	l.log.Open(2)
	c, n := l.log.Filling()
	c[0][n], c[1][n] = kind, arg
	l.note(l.log.Len(), kind, arg)
	l.log.Add()
}

// note notes event at of the log, kind and arg, as it is recorded or
// read: the block a barrier is in - the open block's number once sealed -
// or the first event Validate refuses, if the log has none yet. A run
// merge cannot make an event refused.
func (l *PELog) note(at int, kind, arg int64) {
	if kind == int64(EvBarrier) {
		l.bars = append(l.bars, int32(l.log.Blocks()))
	} else if l.badAt == 0 && refused(kind, arg) {
		l.badAt, l.bad = at+1, [2]int64{kind, arg}
	}
}

// refused reports whether Validate refuses an event: an unknown kind, or
// a negative charge (Replay's clock would ignore what Project's sum
// subtracts).
func refused(kind, arg int64) bool {
	return uint64(kind) >= uint64(NumEventKinds) || EventKind(kind).Charged() && arg < 0
}

// check is Validate for PE rank's log: its barrier count, or the first
// event Validate refuses, as note found them.
func (l *PELog) check(rank int) (barriers int, err error) {
	if l.badAt > 0 {
		return 0, refusal(rank, l.badAt-1, l.bad[0], l.bad[1])
	}
	return len(l.bars), nil
}

func refusal(rank, at int, kind, arg int64) error {
	if uint64(kind) >= uint64(NumEventKinds) {
		return fmt.Errorf("sim: schedule PE %d has unknown event kind %d", rank, kind)
	}
	return fmt.Errorf("sim: schedule PE %d event %d is a negative charge: %s %d", rank, at, EventKind(kind), arg)
}

// Barriers returns the number of barrier events in the log.
func (l *PELog) Barriers() int {
	n, _ := l.check(0)
	return n
}

// NewPELog returns a log of evs, in order and sealed, as Append would
// have recorded it without merging a single instruction run: how a log
// is written by hand.
func NewPELog(skew int64, evs ...Event) *PELog {
	l := &PELog{Skew: skew}
	for _, e := range evs {
		l.push(int64(e.Kind), e.Arg)
	}
	l.log.Close()
	return l
}

// Block is a cursor's scratch: one block's columns as coded, and its
// events. A walk needs one per cursor alive at a time.
type Block struct {
	cols [2][blocks.Len]int64
	hdr  [2][]int64
	evs  [blocks.Len]Event
}

// scratch is b's columns as blocks.Log.Block decodes into them.
func (b *Block) scratch() [][]int64 {
	b.hdr = [2][]int64{b.cols[0][:], b.cols[1][:]}
	return b.hdr[:]
}

// Cursor walks a log's events forward, a block at a time. It is the one
// way the events of a log are read.
type Cursor struct {
	l    *PELog
	next int // the block Next reads (blocks.Log.Block)
	skip int // barriers to pass before the first event Next returns
	b    *Block
}

// Walk returns a cursor at the log's first event that decodes into b.
func (l *PELog) Walk(b *Block) Cursor { return l.WalkGen(0, b) }

// WalkGen returns a cursor at the first event of barrier generation g:
// the one after the log's g-th barrier. The cursor starts at the block
// that barrier is in.
func (l *PELog) WalkGen(g int, b *Block) Cursor {
	c := Cursor{l: l, b: b, skip: g}
	if g > len(l.bars) {
		c.next = l.log.Blocks() + 1 // past the end
	} else if g > 0 {
		c.next = int(l.bars[g-1])
		c.skip -= sort.Search(g, func(i int) bool { return int(l.bars[i]) >= c.next })
	}
	return c
}

// Next returns the next block's events, valid until the next call, or
// nil at the end of the log.
func (c *Cursor) Next() []Event {
	for {
		cols, n := c.l.log.Block(c.next, c.b.scratch())
		if n == 0 {
			return nil
		}
		c.next++
		evs := c.b.evs[:n]
		for i, k := range cols[0][:n] {
			evs[i] = Event{Kind: EventKind(k), Arg: cols[1][i]}
		}
		for ; c.skip > 0 && len(evs) > 0; c.skip-- {
			i := slices.IndexFunc(evs, func(e Event) bool { return e.Kind == EvBarrier })
			if i < 0 {
				evs = nil
				break
			}
			evs = evs[i+1:]
		}
		if len(evs) > 0 {
			return evs
		}
	}
}

// ScheduleKind is the APBF kind of a schedule shard: a PE's log, its
// sealed blocks as they are (DESIGN.md §14). internal/trace names the
// files and writes and reads them.
const ScheduleKind byte = 6

// WriteShard writes the log as a schedule shard: its sealed blocks as
// they are, then a log still recording its open block, coded.
func (l *PELog) WriteShard(w io.Writer) error { return l.log.WriteFile(w, ScheduleKind, 2) }

// ReadShard reads a schedule shard as a sealed log whose blocks stay in
// data. Each block is decoded once, into scratch, to find where it ends
// and to check what Validate checks.
func ReadShard(data []byte, scratch *Block) (*PELog, error) {
	l := &PELog{}
	if err := l.log.Read(data, ScheduleKind, 2, scratch.scratch(), func(c [][]int64, n int) {
		for i, at := 0, l.log.Len(); i < n; i++ {
			l.note(at+i, c[0][i], c[1][i])
		}
	}); err != nil {
		return nil, fmt.Errorf("schedule shard: %w", err)
	}
	return l, nil
}
