package sim

import (
	"bytes"
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
// A recorded log holds its events as APBF blocks of two columns, kind and
// arg, each sealed once it is full, and a shard of a trace directory is
// those blocks as they are (DESIGN.md §14). Every reader takes the events
// through one walk, Walk's Cursor, which decodes a block at a time.
type PELog struct {
	// Skew is the PE's charge-inflation percent (fault-injected slow
	// PE); replay applies the same SkewCharge arithmetic.
	Skew int64

	sealed [][]byte // the sealed blocks, each one coded APBF block
	rows   int      // the events in sealed
	bars   []int32  // the sealed block each barrier is in, in log order
	badAt  int      // 1 + the index in sealed of the first event Validate refuses; 0 for none
	bad    [2]int64 // that event's kind and arg

	open [2][]int64 // the block being filled: kinds and args, blocks.Len long at most
	enc  []byte     // seal's coding scratch
}

// Append records one event. An EvInstr that follows an EvInstr of the
// same per-message instruction count extends it into one InstrRun, priced
// everywhere as its messages one by one; any other event ends the run. A
// full block is sealed only when an event does not extend its last row,
// so a run merges across a block boundary as it does inside a block.
func (l *PELog) Append(kind EventKind, arg int64) {
	if kinds, args := l.open[0], l.open[1]; kind == EvInstr && len(args) > 0 && kinds[len(args)-1] == int64(EvInstr) && args[len(args)-1] >= 0 && arg >= 0 {
		last := &args[len(args)-1]
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
	if len(l.open[1]) == cap(l.open[1]) {
		l.grow()
	}
	l.open[0] = append(l.open[0], kind)
	l.open[1] = append(l.open[1], arg)
}

// grow seals the full open block, or opens the log's first. Kept out of
// push so that push stays small.
func (l *PELog) grow() {
	if cap(l.open[1]) == 0 {
		l.open = [2][]int64{make([]int64, 0, blocks.Len), make([]int64, 0, blocks.Len)}
		return
	}
	l.seal()
}

// seal codes the open block's rows as one APBF block of exactly its size
// and adds it to the sealed blocks.
func (l *PELog) seal() {
	if len(l.open[1]) == 0 {
		return
	}
	l.enc = blocks.AppendBlock(l.enc[:0], len(l.open[1]), nil, l.open[:])
	l.add(bytes.Clone(l.enc), l.open[0], l.open[1])
	l.open[0], l.open[1] = l.open[0][:0], l.open[1][:0]
}

// close seals the open block and lets the recording scratch go.
func (l *PELog) close() {
	l.seal()
	l.open, l.enc = [2][]int64{}, nil
}

// add appends b, a block whose rows are kinds and args, to the sealed
// blocks, with where its barriers are and the first event in it Validate
// refuses, if the log has none yet: what a block is checked for, once,
// as it is sealed or read from a shard.
func (l *PELog) add(b []byte, kinds, args []int64) {
	for i, k := range kinds {
		if k == int64(EvBarrier) {
			l.bars = append(l.bars, int32(len(l.sealed)))
		} else if l.badAt == 0 && refused(k, args[i]) {
			l.badAt, l.bad = l.rows+i+1, [2]int64{k, args[i]}
		}
	}
	l.sealed = append(l.sealed, b)
	l.rows += len(kinds)
}

// refused reports whether Validate refuses an event: an unknown kind, or
// a negative charge (Replay's clock would ignore what Project's sum
// subtracts).
func refused(kind, arg int64) bool {
	return uint64(kind) >= uint64(NumEventKinds) || EventKind(kind).Charged() && arg < 0
}

// check is Validate for PE rank's log: its barrier count, or the first
// event Validate refuses. The open block is walked; the sealed blocks
// were checked when they were sealed or read.
func (l *PELog) check(rank int) (barriers int, err error) {
	if l.badAt > 0 {
		return 0, refusal(rank, l.badAt-1, l.bad[0], l.bad[1])
	}
	barriers = len(l.bars)
	for i, k := range l.open[0] {
		if k == int64(EvBarrier) {
			barriers++
		} else if refused(k, l.open[1][i]) {
			return 0, refusal(rank, l.rows+i, k, l.open[1][i])
		}
	}
	return barriers, nil
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
// is written by hand, or read from schedule.json.
func NewPELog(skew int64, evs ...Event) *PELog {
	l := &PELog{Skew: skew}
	for _, e := range evs {
		l.push(int64(e.Kind), e.Arg)
	}
	l.close()
	return l
}

// Block is a cursor's scratch: one block's columns as coded, and its
// events. A walk needs one per cursor alive at a time.
type Block struct {
	cols [2][blocks.Len]int64
	evs  [blocks.Len]Event
}

// decode decodes one sealed block, which its sealer or ReadShard vouched for.
func (b *Block) decode(data []byte) []Event {
	n, _, _, err := blocks.ReadBlock(data, 0, false, [][]int64{b.cols[0][:0], b.cols[1][:0]}, nil)
	if err != nil {
		panic("sim: a sealed schedule block does not decode: " + err.Error())
	}
	return b.events(b.cols[0][:n], b.cols[1][:n])
}

func (b *Block) events(kinds, args []int64) []Event {
	evs := b.evs[:len(kinds)]
	for i, k := range kinds {
		evs[i] = Event{Kind: EventKind(k), Arg: args[i]}
	}
	return evs
}

// Cursor walks a log's events forward, a block at a time: each sealed
// block, then the open block. It is the one way the events of a log are
// read.
type Cursor struct {
	l    *PELog
	next int // the block Next reads: i < len(sealed) sealed block i, len(sealed) the open block
	skip int // barriers to pass before the first event Next returns
	b    *Block
}

// Walk returns a cursor at the log's first event that decodes into b.
func (l *PELog) Walk(b *Block) Cursor { return Cursor{l: l, b: b} }

// WalkGen returns a cursor at the first event of barrier generation g:
// the one after the log's g-th barrier. A sealed log's cursor starts at
// the block that barrier is in.
func (l *PELog) WalkGen(g int, b *Block) Cursor {
	c := Cursor{l: l, skip: g, b: b}
	switch {
	case g == 0:
	case g <= len(l.bars):
		blk := l.bars[g-1]
		c.next = int(blk)
		c.skip = g - sort.Search(g, func(i int) bool { return l.bars[i] >= blk })
	default:
		c.next, c.skip = len(l.sealed), g-len(l.bars)
	}
	return c
}

// Next returns the next block's events, valid until the next call, or
// nil at the end of the log.
func (c *Cursor) Next() []Event {
	for l := c.l; c.next <= len(l.sealed); {
		var evs []Event
		switch i := c.next; {
		case i < len(l.sealed):
			evs = c.b.decode(l.sealed[i])
		case len(l.open[1]) > 0:
			evs = c.b.events(l.open[0], l.open[1])
		}
		c.next++
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
	return nil
}

// ScheduleKind is the APBF kind of a schedule shard: a PE's log, its
// sealed blocks as they are (DESIGN.md §14). internal/trace names the
// files and writes and reads them.
const ScheduleKind byte = 6

// WriteShard writes the log as a schedule shard: its sealed blocks as
// they are, then a log still recording its open block, coded.
func (l *PELog) WriteShard(w io.Writer) error {
	_, err := w.Write(blocks.AppendHeader(nil, ScheduleKind, 2))
	for _, b := range l.sealed {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	if err == nil && len(l.open[1]) > 0 {
		_, err = w.Write(blocks.AppendBlock(nil, len(l.open[1]), nil, l.open[:]))
	}
	return err
}

// ReadShard reads a schedule shard as a sealed log whose blocks stay in
// data. Each block is decoded once, into scratch, to find where it ends
// and to check what Validate checks.
func ReadShard(data []byte, scratch *Block) (*PELog, error) {
	ncols, p, err := blocks.Header(data, ScheduleKind)
	if err != nil {
		return nil, err
	}
	if ncols != 2 {
		return nil, fmt.Errorf("schedule shard has %d columns, want 2", ncols)
	}
	// Blocks as sealed hold blocks.Len rows of a byte a value at least,
	// all but the last: room for their number, grown once.
	l := &PELog{sealed: make([][]byte, 0, len(data)/(2*blocks.Len)+1)}
	for p < len(data) {
		if n, _, err := blocks.Uvarint(data, p); err == nil && n > blocks.Len {
			return nil, fmt.Errorf("schedule block at byte %d claims %d rows (max %d)", p, n, blocks.Len)
		}
		n, next, _, err := blocks.ReadBlock(data, p, false, [][]int64{scratch.cols[0][:0], scratch.cols[1][:0]}, nil)
		if err != nil {
			return nil, fmt.Errorf("schedule block at byte %d: %w", p, err)
		}
		l.add(data[p:next:next], scratch.cols[0][:n], scratch.cols[1][:n])
		p = next
	}
	return l, nil
}
