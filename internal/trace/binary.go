package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"actorprof/internal/conveyor"
)

// The compact binary columnar trace format ("APBF": ActorProf Binary
// Format), the one encoding the readers open. CSV is the paper's
// interchange format (paper.go), but at Section VI trace sizes its
// decimal-and-comma encoding costs 2-4x the bytes and most of the parse
// time. APBF stores the five record kinds as blocks of column-major
// zigzag varints:
//
//	header : "APBF" | version (1 byte) | kind (1 byte) | uvarint ncols
//	block  : uvarint nrows (>0)
//	         [kind=segments only] nrows strings (uvarint len | bytes)
//	         ncols columns, each nrows zigzag-varint int64s
//	... blocks repeat until EOF
//
// The header is self-describing and versioned. Column-major blocks keep
// same-column values adjacent, which makes the varints short (PE numbers
// and node IDs cluster) and the decode loop branch-free per column. A
// torn tail - a writer that stopped mid-block - is detected mid-block and
// counted toward the tolerant reader's skipped total as the rows the
// block claimed.
const (
	binMagic   = "APBF"
	binVersion = 1

	binKindLogical  byte = 1
	binKindPAPI     byte = 2
	binKindPhysical byte = 3
	binKindOverall  byte = 4
	binKindSegments byte = 5

	// binBlockRows is the encoder's block size: small enough that a torn
	// tail loses few records, large enough to amortize the per-block row
	// count.
	binBlockRows = 1024

	// maxBinRows / maxBinCols / maxBinStr bound what a (possibly
	// hostile) header or block may claim, so a corrupt file cannot drive
	// the reader into huge allocations.
	maxBinRows = 1 << 20
	maxBinCols = 1 << 10
	maxBinStr  = 1 << 16

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

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// shardWriter writes one trace file from a byte buffer, about binBufBytes
// at a time: the paper's lines appended to it, or APBF blocks coded into
// it from column scratch, pushed a row at a time or filled a block at a
// time. Errors are sticky and surface from finish. shardWriters pools
// them.
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
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
	b.buf = binary.AppendUvarint(append(append(b.buf, binMagic...), binVersion, kind), uint64(ncols))
}

// push appends one row. vals must have exactly ncols entries (the
// pad/truncate policy for ragged records is the caller's).
func (b *shardWriter) push(vals ...int64) {
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], vals[i])
	}
	b.n++
	if b.n >= binBlockRows {
		b.flushBlock()
	}
}

// pushStr appends one row of a string-bearing kind (segments).
func (b *shardWriter) pushStr(s string, vals ...int64) {
	b.strs = append(b.strs, s)
	b.push(vals...)
}

// block hands out the columns of the next block, n <= binBlockRows rows
// long, for the caller to fill; flushBlock codes them. No pushed row may
// be pending.
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
	buf := binary.AppendUvarint(b.buf, uint64(b.n))
	for _, s := range b.strs {
		buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	for c, col := range b.cols {
		for _, v := range col {
			buf = binary.AppendUvarint(buf, zigzag(v))
		}
		b.cols[c] = col[:0]
	}
	b.buf, b.strs, b.n = buf, b.strs[:0], 0
	b.gathered()
}

// gathered writes the buffer once it holds binBufBytes.
func (b *shardWriter) gathered() {
	if len(b.buf) >= binBufBytes {
		b.write()
	}
}

func (b *shardWriter) write() {
	if b.err == nil {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
}

// finish codes the final partial block (if any), writes what is gathered
// and reports any sticky error.
func (b *shardWriter) finish() error {
	b.flushBlock()
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
	row     []int64 // rowCounters' scratch
}

var binReaders = sync.Pool{New: func() any { return new(binReader) }}

// uvarint decodes the varint at data[p:] and returns it with the offset
// past it. A varint the end of data cuts off is io.ErrUnexpectedEOF; one
// past 64 bits is corruption, never a panic.
func uvarint(data []byte, p int) (uint64, int, error) {
	switch u, n := binary.Uvarint(data[p:]); {
	case n > 0:
		return u, p + n, nil
	case n == 0:
		return 0, p, io.ErrUnexpectedEOF
	}
	return 0, p, errors.New("varint overflows a 64-bit integer")
}

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

// header validates the APBF header at the start of d's bytes, leaving d
// at the first block. An empty file reports ok == false: zero records.
// It is the one place the magic is checked.
func (d *binReader) header(path string, wantKind byte, minCols int) (ok bool, err error) {
	d.path = path
	if d.src != nil {
		if err := d.fill(); err != nil {
			return false, err
		}
	}
	data, hdr := d.data, len(binMagic)+2
	switch {
	case len(data) == 0:
		return false, nil
	case len(data) < hdr:
		return false, fmt.Errorf("trace: %s: truncated binary header: %w", path, io.ErrUnexpectedEOF)
	case string(data[:4]) != binMagic:
		return false, fmt.Errorf("trace: %s: bad magic %q in binary header", path, data[:4])
	case data[4] != binVersion:
		return false, fmt.Errorf("trace: %s: unsupported binary trace version %d (want %d)", path, data[4], binVersion)
	case data[5] != wantKind:
		return false, fmt.Errorf("trace: %s: binary record kind %d, want %d", path, data[5], wantKind)
	}
	ncols, p, err := uvarint(data, hdr)
	if err != nil {
		return false, fmt.Errorf("trace: %s: truncated binary header: %w", path, err)
	}
	if ncols < uint64(minCols) || ncols > maxBinCols {
		return false, fmt.Errorf("trace: %s: binary header claims %d columns, want %d..%d", path, ncols, minCols, maxBinCols)
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
// withStrings) and moves d past it. It returns io.ErrUnexpectedEOF, bare,
// when the window ends inside the block and more of the file follows. A
// torn or corrupt block returns (lost, err) where lost is the number of
// records the block claimed (the tolerant caller's skipped increment); an
// unreadable block header claims one.
func (d *binReader) readBlock(withStrings bool) (n, lost int, err error) {
	data, more := d.data, d.src != nil
	n64, p, err := uvarint(data, d.p)
	switch {
	case err == io.ErrUnexpectedEOF && more:
		return 0, 1, err
	case err != nil:
		return 0, 1, fmt.Errorf("trace: %s: torn binary block header: %w", d.path, err)
	case n64 == 0 || n64 > maxBinRows:
		return 0, 1, fmt.Errorf("trace: %s: binary block claims %d rows (max %d)", d.path, n64, maxBinRows)
	}
	n = int(n64)
	torn := func(err error) (int, int, error) {
		if err == io.ErrUnexpectedEOF && more {
			return 0, n, err
		}
		return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
	}
	// Every value takes a byte at least: a block claiming more than the
	// bytes left is torn before any column is sized for it.
	if left := len(data) - p; n*d.ncols > left && more {
		return torn(io.ErrUnexpectedEOF)
	} else if n*d.ncols > left {
		return torn(fmt.Errorf("%d rows of %d columns in the %d bytes left", n, d.ncols, left))
	}
	if withStrings {
		d.strs = d.strs[:0]
		for i := 0; i < n; i++ {
			l, next, err := uvarint(data, p)
			switch {
			case err != nil:
				return torn(err)
			case l > maxBinStr:
				return torn(fmt.Errorf("string length %d (max %d)", l, maxBinStr))
			case next+int(l) > len(data):
				return torn(io.ErrUnexpectedEOF)
			}
			p = next + int(l)
			d.strs = append(d.strs, string(data[next:p]))
		}
	}
	for c, col := range d.cols {
		col = slices.Grow(col[:0], n)[:n]
		for i := range col {
			if p < len(data) && data[p] < 0x80 {
				col[i] = unzigzag(uint64(data[p]))
				p++
				continue
			}
			u, next, err := uvarint(data, p)
			if err != nil {
				return torn(err)
			}
			col[i], p = unzigzag(u), next
		}
		d.cols[c] = col
	}
	d.p = p
	return n, 0, nil
}

// The run-wide kinds' row codecs (the kind table's toRow / fromRow).

// padCounters copies a record's counters into its row's counter columns.
// Columnar blocks need a uniform width; ragged counter lists (a
// hand-built Set's) pad with zeros / truncate.
func padCounters(dst, src []int64) {
	for i := copy(dst, src); i < len(dst); i++ {
		dst[i] = 0
	}
}

// rowCounters gathers row i's columns from first on into the reader's
// row scratch (nil when there are none): valid until the next call.
func (d *binReader) rowCounters(first, i int) []int64 {
	if first == d.ncols {
		return nil
	}
	if cap(d.row) < d.ncols-first {
		d.row = make([]int64, d.ncols-first)
	}
	counters := d.row[:d.ncols-first]
	for c := first; c < d.ncols; c++ {
		counters[c-first] = d.cols[c][i]
	}
	return counters
}

func physicalToRow(r PhysicalRecord, row []int64) string {
	row[0], row[1], row[2] = int64(r.Kind), int64(r.BufBytes), int64(r.SrcPE)
	row[3], row[4] = int64(r.DstPE), r.Cycles
	return ""
}

func physicalFromRow(d *binReader, i int) PhysicalRecord {
	rec := PhysicalRecord{
		Kind: conveyor.SendKind(d.cols[0][i]), BufBytes: int(d.cols[1][i]),
		SrcPE: int(d.cols[2][i]), DstPE: int(d.cols[3][i]),
	}
	// Column 4 (virtual-clock cycles) was added after the base format
	// shipped; files written before it simply lack the column and load
	// with Cycles == 0, as an imported physical.txt does.
	if d.ncols >= binPhysicalCols {
		rec.Cycles = d.cols[4][i]
	}
	return rec
}

func overallToRow(r OverallRecord, row []int64) string {
	row[0], row[1], row[2], row[3] = int64(r.PE), r.TMain, r.TComm, r.TProc
	return ""
}

func overallFromRow(d *binReader, i int) OverallRecord {
	m, c, p := d.cols[1][i], d.cols[2][i], d.cols[3][i]
	return OverallRecord{PE: int(d.cols[0][i]), TMain: m, TComm: c, TProc: p, TTotal: m + c + p}
}

func segmentToRow(r SegmentRecord, row []int64) string {
	row[0], row[1], row[2] = int64(r.PE), r.Count, r.Cycles
	padCounters(row[3:], r.Counters)
	return r.Name
}

func segmentFromRow(d *binReader, i int) SegmentRecord {
	return SegmentRecord{
		PE: int(d.cols[0][i]), Name: d.strs[i],
		Count: d.cols[1][i], Cycles: d.cols[2][i], Counters: slices.Clone(d.rowCounters(3, i)),
	}
}

// The send kinds' column path between an APBF block's columns and the
// packed form a Set holds (DESIGN.md §10), with no row on either side:
// the send kinds have no row codec.

// logicalSends is how a packed consumer takes PE pe's logical shard: each
// APBF row admitted straight from its block's columns.
func logicalSends(m *meta, pe int, yield func(LogicalSend)) rowFunc {
	return func(d *binReader, i int) error {
		c := d.cols
		err := admitLogical(m, pe, int(c[0][i]), int(c[1][i]), int(c[2][i]), int(c[3][i]), int(c[4][i]))
		if err == nil {
			yield(LogicalSend{int32(c[3][i]), int32(c[4][i])})
		}
		return err
	}
}

// papiSends is logicalSends for PE pe's PAPI shard. The counters yield
// gets are the row's, valid until it returns.
func papiSends(m *meta, pe int, yield func(PAPISend, []int64)) rowFunc {
	return func(d *binReader, i int) error {
		c := d.cols
		dst, pkt, mbox, sends := int(c[3][i]), int(c[4][i]), int(c[5][i]), int(c[6][i])
		err := admitPAPI(m, pe, int(c[0][i]), int(c[1][i]), int(c[2][i]), dst, pkt, mbox, sends)
		if err == nil {
			yield(PAPISend{int32(dst), int32(pkt), int32(mbox), int32(sends)}, d.rowCounters(7, i))
		}
		return err
	}
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
