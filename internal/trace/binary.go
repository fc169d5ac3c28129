package trace

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"actorprof/internal/blocks"
	"actorprof/internal/conveyor"
)

// The compact binary columnar trace format ("APBF": ActorProf Binary
// Format), the one encoding the readers open. CSV is the paper's
// interchange format (paper.go), but at Section VI trace sizes its
// decimal-and-comma encoding costs 2-4x the bytes and most of the parse
// time. APBF stores the five record kinds as blocks of column-major
// zigzag varints, coded and read by the block kernel in package blocks
// (where the layout is drawn); segments is the kind with strings.
//
// The header is self-describing and versioned. Column-major blocks keep
// same-column values adjacent, which makes the varints short (PE numbers
// and node IDs cluster) and the decode loop branch-free per column. A
// torn tail - a writer that stopped mid-block - is detected mid-block and
// counted toward the tolerant reader's skipped total as the rows the
// block claimed.
const (
	binKindLogical  byte = 1
	binKindPAPI     byte = 2
	binKindPhysical byte = 3
	binKindOverall  byte = 4
	binKindSegments byte = 5
	// Kind 6 is a schedule shard (package sim).

	// binBlockRows is the encoder's block size: small enough that a torn
	// tail loses few records, large enough to amortize the per-block row
	// count.
	binBlockRows = blocks.Len

	// Physical column counts: the base format carried 4 columns
	// (kind, buf_bytes, src, dst); the current writer appends the
	// per-PE virtual-clock cycles as column 4. Readers accept either,
	// so pre-cycles traces keep loading.
	binPhysicalMinCols = 4
	binPhysicalCols    = 5
)

// APBF shard names (the paper's names are in paper.go).
func logicalBinFile(pe int) string { return fmt.Sprintf("PE%d_send.bin", pe) }
func papiBinFile(pe int) string    { return fmt.Sprintf("PE%d_PAPI.bin", pe) }

const (
	overallBinFile  = "overall.bin"
	physicalBinFile = "physical.bin"
	segmentsBinFile = "segments.bin"
)

// shardWriter writes one trace file from a byte buffer, about binBufBytes
// at a time: the paper's lines appended to it, APBF blocks coded into it
// from column scratch filled a block at a time, or a sealed log's blocks
// as they are. Errors are sticky and surface from finish. shardWriters
// pools them.
type shardWriter struct {
	w    io.Writer
	cols [][]int64
	strs []string
	n    int
	buf  []byte
	err  error
}

var shardWriters = sync.Pool{New: func() any { return new(shardWriter) }}

// binBufBytes is how much a shardWriter gathers before a write, and the
// smallest window a binReader reads a file through.
const binBufBytes = 64 << 10

// start points b at a new file on w.
func (b *shardWriter) start(w io.Writer) {
	b.w, b.buf, b.n, b.err, b.strs, b.cols = w, b.buf[:0], 0, nil, b.strs[:0], b.cols[:0]
}

// header codes the header of an APBF file of kind/ncols.
func (b *shardWriter) header(kind byte, ncols int) {
	b.cols = slices.Grow(b.cols, ncols)[:ncols]
	b.buf = blocks.AppendHeader(b.buf, kind, ncols)
}

// block hands out the columns of the next block, n <= binBlockRows rows
// long, for the caller to fill (and strs, for a string-bearing kind);
// flushBlock codes them.
func (b *shardWriter) block(n int) [][]int64 {
	for c := range b.cols {
		b.cols[c] = slices.Grow(b.cols[c][:0], n)[:n]
	}
	b.n = n
	return b.cols
}

// flushBlock codes the buffered rows as one block.
func (b *shardWriter) flushBlock() {
	if b.n == 0 {
		return
	}
	b.buf = blocks.AppendBlock(b.buf, b.n, b.strs, b.cols)
	b.strs, b.n = b.strs[:0], 0
	b.gathered()
}

// gathered writes the buffer once it holds binBufBytes.
func (b *shardWriter) gathered() {
	if len(b.buf) >= binBufBytes {
		b.write()
	}
}

func (b *shardWriter) write() {
	if b.err == nil && len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
}

// Write gathers p, blocks a log sealed (blocks.Log.WriteFile); the error
// is the sticky one.
func (b *shardWriter) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	b.gathered()
	return len(p), b.err
}

// finish writes what is gathered and reports any sticky error.
func (b *shardWriter) finish() error {
	b.write()
	return b.err
}

// binReader decodes one APBF file block by block from a window of its
// bytes, refilled from the file as blocks run past it; a block's extent is
// a pair of window offsets plus the window's file offset. binReaders pools
// them, so a worker's window and columns outlive its shard.
type binReader struct {
	src     io.Reader // the file past the window; nil once read to its end
	data    []byte    // the window: data[p:] is not decoded yet
	p       int
	base    int64 // the file offset of data[0]
	path    string
	ncols   int
	rowBase int64 // file-order index of the next block's first row
	cols    [][]int64
	strs    []string
	row     []int64       // a PAPI run's counters (papiSends)
	sends   []LogicalSend // a send block's admitted run (logicalSends)
	papis   []PAPISend    // papiSends'
}

var binReaders = sync.Pool{New: func() any { return new(binReader) }}

// reset points d at an APBF file from offset off on - its header, or a
// block whose first row has index rowBase: data are the file's bytes from
// there, src the rest of the file (nil when data reach its end).
func (d *binReader) reset(src io.Reader, data []byte, off, rowBase int64) {
	d.src, d.data, d.p, d.base, d.rowBase = src, data, 0, off, rowBase
}

// fill slides the undecoded bytes to the front of the window - a window
// twice the size when they fill it - and reads the file into the rest.
func (d *binReader) fill() error {
	rest, buf := d.data[d.p:], d.data[:cap(d.data)]
	if len(rest) == len(buf) {
		buf = make([]byte, max(2*len(buf), binBufBytes))
	}
	keep := copy(buf, rest)
	n, err := io.ReadFull(d.src, buf[keep:])
	d.data, d.p, d.base = buf[:keep+n], 0, d.base+int64(d.p)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.src, err = nil, nil
	}
	return err
}

// header validates the APBF header at the start of d's bytes
// (blocks.Header), leaving d at the first block. An empty file reports
// ok == false: zero records.
func (d *binReader) header(path string, wantKind byte, minCols int) (ok bool, err error) {
	d.path = path
	if d.src != nil {
		if err := d.fill(); err != nil {
			return false, err
		}
	}
	if len(d.data) == 0 {
		return false, nil
	}
	ncols, p, err := blocks.Header(d.data, wantKind)
	if err != nil {
		return false, fmt.Errorf("trace: %s: %w", path, err)
	}
	if ncols < uint64(minCols) || ncols > blocks.MaxCols {
		return false, fmt.Errorf("trace: %s: binary header claims %d columns, want %d..%d", path, ncols, minCols, blocks.MaxCols)
	}
	d.p, d.ncols, d.cols = p, int(ncols), slices.Grow(d.cols[:0], int(ncols))[:ncols]
	return true, nil
}

// block locates one decoded block: the bytes it occupies in its file and
// the file-order index of its first row.
type block struct {
	off, length, rowBase int64
	rows                 int
}

// pos is the file offset of the next byte the decoder will consume.
func (d *binReader) pos() int64 { return d.base + int64(d.p) }

// eachBlock is the package's one block loop: it decodes block after
// block into d's columns, refilling the window whenever a block runs past
// it, and hands visit each one's extent. It ends at a clean end of the
// bytes, at a torn or corrupt block (lost is the number of records it
// claimed) or at visit's first error.
func (d *binReader) eachBlock(withStrings bool, visit func(b block) error) (lost int, err error) {
	for d.p < len(d.data) || d.src != nil {
		b := block{off: d.pos(), rowBase: d.rowBase}
		n, lost, err := d.readBlock(withStrings)
		if err == io.ErrUnexpectedEOF { // the window ends inside the block
			if err = d.fill(); err == nil {
				continue
			}
		}
		if err != nil {
			return lost, err
		}
		b.rows, b.length = n, d.pos()-b.off
		d.rowBase += int64(n)
		if err := visit(b); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// readBlock decodes the block at d.p into d.cols (and d.strs when
// withStrings) and moves d past it: blocks.ReadBlock, its bare
// io.ErrUnexpectedEOF meaning that the window ends inside the block and
// more of the file follows.
func (d *binReader) readBlock(withStrings bool) (n, lost int, err error) {
	var strs *[]string
	if withStrings {
		strs = &d.strs
	}
	n, p, lost, err := blocks.ReadBlock(d.data, d.p, d.src != nil, d.cols, strs)
	if err != nil && err != io.ErrUnexpectedEOF {
		err = fmt.Errorf("trace: %s: %w", d.path, err)
	}
	if err == nil {
		d.p = p
	}
	return n, lost, err
}

// The run-wide kinds' row codecs (the kind table's toRow / fromRow).

func physicalToRow(r PhysicalRecord, c [][]int64, i int) string {
	c[0][i], c[1][i], c[2][i] = int64(r.Kind), int64(r.BufBytes), int64(r.SrcPE)
	c[3][i], c[4][i] = int64(r.DstPE), r.Cycles
	return ""
}

// physicalFromRow decodes row i of a physical block's columns: a file's,
// the time index's or the collector's own.
func physicalFromRow(c [][]int64, _ []string, i int) PhysicalRecord {
	rec := PhysicalRecord{
		Kind: conveyor.SendKind(c[0][i]), BufBytes: int(c[1][i]),
		SrcPE: int(c[2][i]), DstPE: int(c[3][i]),
	}
	// Column 4 (virtual-clock cycles) was added after the base format
	// shipped; files written before it simply lack the column and load
	// with Cycles == 0, as an imported physical.txt does.
	if len(c) >= binPhysicalCols {
		rec.Cycles = c[4][i]
	}
	return rec
}

func overallToRow(r OverallRecord, c [][]int64, i int) string {
	c[0][i], c[1][i], c[2][i], c[3][i] = int64(r.PE), r.TMain, r.TComm, r.TProc
	return ""
}

func overallFromRow(c [][]int64, _ []string, i int) OverallRecord {
	m, comm, p := c[1][i], c[2][i], c[3][i]
	return OverallRecord{PE: int(c[0][i]), TMain: m, TComm: comm, TProc: p, TTotal: m + comm + p}
}

// segmentToRow pads ragged counter lists (a hand-built Set's) with zeros
// or truncates them: columnar blocks need a uniform width.
func segmentToRow(r SegmentRecord, c [][]int64, i int) string {
	c[0][i], c[1][i], c[2][i] = int64(r.PE), r.Count, r.Cycles
	for e, col := range c[3:] {
		col[i] = 0
		if e < len(r.Counters) {
			col[i] = r.Counters[e]
		}
	}
	return r.Name
}

func segmentFromRow(c [][]int64, strs []string, i int) SegmentRecord {
	rec := SegmentRecord{PE: int(c[0][i]), Name: strs[i], Count: c[1][i], Cycles: c[2][i]}
	for _, col := range c[3:] {
		rec.Counters = append(rec.Counters, col[i])
	}
	return rec
}

// The send kinds' column path between an APBF block's columns and the
// packed form a Set holds (DESIGN.md §10), with no row on either side:
// the send kinds have no row codec. One block kernel - the send rule a
// column at a time, then the admitted rows packed into one run - serves
// both readers, and its packers the collector's hand-over (collector.go).

// sendRun is the send rule (kind.go: checkSend, checkWidth) over rows
// lo..hi-1 of a send block: where the run of rows it admits from lo on
// ends. Columns 0-3 are both kinds' source node and PE - the shard's, so
// constants - and destination node and PE; the widths columns after them
// must fit 32 bits, each checked as a column of its own.
func sendRun(m *meta, pe int, c [][]int64, widths, lo, hi int) int {
	node, src, npes, per := int64(pe/m.perNode), int64(pe), uint64(m.npes), int64(m.perNode)
	c0, c1, c2 := c[0][lo:hi], c[1][lo:hi], c[2][lo:hi]
	for i, dst := range c[3][lo:hi] {
		if first := c2[i] * per; c0[i] != node || c1[i] != src || uint64(dst) >= npes || uint64(c2[i]) >= npes || dst < first || dst-first >= per {
			hi = lo + i
			break
		}
	}
	for _, col := range c[4 : 4+widths] {
		for i, v := range col[lo:hi] {
			if int64(int32(v)) != v {
				hi = lo + i
				break
			}
		}
	}
	return hi
}

// admitSends runs the send rule over a send block of n rows: each run it
// admits goes to pack, and the row that ends one to refuse - the row
// rule, which words the error: fatal when strict, one skip when tolerant,
// after which admission resumes.
func admitSends(m *meta, pe int, c [][]int64, widths, n int, tolerant bool,
	pack func(lo, hi int), refuse func(i int) error) (skipped int, err error) {
	for lo := 0; lo < n; lo++ {
		hi := sendRun(m, pe, c, widths, lo, n)
		if pack(lo, hi); hi == n {
			break
		}
		if err := refuse(hi); err == nil {
			pack(hi, hi+1)
		} else if !tolerant {
			return 0, err
		} else {
			skipped++
		}
		lo = hi
	}
	return skipped, nil
}

// logicalSends is how a packed consumer takes PE pe's logical shard: a
// block's admitted rows, packed into one run, go to yield, valid until it
// returns.
func logicalSends(m *meta, pe int, yield func([]LogicalSend)) blockFunc {
	return func(d *binReader, n int, tolerant bool) (int, error) {
		c, run := d.cols, d.sends[:0]
		skipped, err := admitSends(m, pe, c, 1, n, tolerant,
			func(lo, hi int) { run = packLogical(run, c, lo, hi) },
			func(i int) error {
				return admitLogical(m, pe, int(c[0][i]), int(c[1][i]), int(c[2][i]), int(c[3][i]), int(c[4][i]))
			})
		if d.sends = run; len(run) > 0 {
			yield(run)
		}
		return skipped, err
	}
}

// papiSends is logicalSends for PE pe's PAPI shard; a run's counters are
// len(m.events) words per record.
func papiSends(m *meta, pe int, yield func([]PAPISend, []int64)) blockFunc {
	return func(d *binReader, n int, tolerant bool) (int, error) {
		c, run, words := d.cols, d.papis[:0], d.row[:0]
		skipped, err := admitSends(m, pe, c, 3, n, tolerant,
			func(lo, hi int) { run, words = packPAPI(run, words, c, len(m.events), lo, hi) },
			func(i int) error {
				return admitPAPI(m, pe, int(c[0][i]), int(c[1][i]), int(c[2][i]), int(c[3][i]), int(c[4][i]), int(c[5][i]), int(c[6][i]))
			})
		if d.papis, d.row = run, words; len(run) > 0 {
			yield(run, words)
		}
		return skipped, err
	}
}

// packLogical appends rows lo..hi-1 of a logical block to run.
func packLogical(run []LogicalSend, c [][]int64, lo, hi int) []LogicalSend {
	dst, n := c[3][lo:hi], len(run)
	run = slices.Grow(run, len(dst))[:n+len(dst)]
	out, size := run[n:], c[4][lo:hi][:len(dst)]
	for i, d := range dst {
		out[i] = LogicalSend{int32(d), int32(size[i])}
	}
	return run
}

// packPAPI appends rows lo..hi-1 of a PAPI block to run and their k
// counters to words: a block's counter columns beyond k are dropped and
// missing ones read as zero, as the writer pads them.
func packPAPI(run []PAPISend, words []int64, c [][]int64, k, lo, hi int) ([]PAPISend, []int64) {
	dst, n := c[3][lo:hi], len(run)
	run = slices.Grow(run, len(dst))[:n+len(dst)]
	out, pkt, mbox, sends := run[n:], c[4][lo:hi][:len(dst)], c[5][lo:hi][:len(dst)], c[6][lo:hi][:len(dst)]
	for i, d := range dst {
		out[i] = PAPISend{int32(d), int32(pkt[i]), int32(mbox[i]), int32(sends[i])}
	}
	n = len(words)
	words = slices.Grow(words, len(dst)*k)[:n+len(dst)*k]
	if col := words[n:]; len(c)-7 < k {
		clear(col)
	}
	for e, from := range c[7:min(len(c), 7+k)] {
		for i, v := range from[lo:hi] {
			words[n+i*k+e] = v
		}
	}
	return run, words
}

// logicalColumns fills a block's columns with PE pe's logical rows from
// lo on, as many as the columns are long. The source PE and node are the
// shard's; a destination's node is DstPE / PEsPerNode.
func (s *Set) logicalColumns(pe int, cols [][]int64, lo int) {
	node := int64(pe / s.PEsPerNode)
	for i, r := range s.Logical[pe][lo:][:len(cols[0])] {
		cols[0][i], cols[1][i], cols[2][i] = node, int64(pe), int64(int(r.DstPE)/s.PEsPerNode)
		cols[3][i], cols[4][i] = int64(r.DstPE), int64(r.MsgSize)
	}
}

// papiColumns is logicalColumns for PE pe's PAPI rows and their counters.
func (s *Set) papiColumns(pe int, cols [][]int64, lo int) {
	k, node := len(s.Config.PAPIEvents), int64(pe/s.PEsPerNode)
	counters := s.PAPICounters[pe][lo*k:]
	for i, r := range s.PAPI[pe][lo:][:len(cols[0])] {
		cols[0][i], cols[1][i], cols[2][i] = node, int64(pe), int64(int(r.DstPE)/s.PEsPerNode)
		cols[3][i], cols[4][i], cols[5][i], cols[6][i] = int64(r.DstPE), int64(r.PktSize), int64(r.MailboxID), int64(r.NumSends)
		for e, v := range counters[i*k : (i+1)*k] {
			cols[7+e][i] = v
		}
	}
}
