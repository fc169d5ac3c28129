package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"actorprof/internal/conveyor"
)

// The compact binary columnar trace format ("APBF": ActorProf Binary
// Format). CSV is the paper's interchange format, but at Section VI
// trace sizes its decimal-and-comma encoding costs 2-4x the bytes and
// most of the parse time. APBF stores the same five record kinds as
// blocks of column-major zigzag varints:
//
//	header : "APBF" | version (1 byte) | kind (1 byte) | uvarint ncols
//	block  : uvarint nrows (>0)
//	         [kind=segments only] nrows strings (uvarint len | bytes)
//	         ncols columns, each nrows zigzag-varint int64s
//	... blocks repeat until EOF
//
// The header is self-describing (readers sniff the magic, so files are
// auto-detected regardless of extension) and versioned. Column-major
// blocks keep same-column values adjacent, which makes the varints short
// (PE numbers and node IDs cluster) and the decode loop branch-free per
// column. A torn tail - a writer that stopped mid-block - is detected
// mid-block and counted toward the tolerant reader's skipped total,
// exactly like a torn CSV line.
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

// Binary sibling names of the CSV trace files.
func logicalBinFile(pe int) string { return fmt.Sprintf("PE%d_send.bin", pe) }
func papiBinFile(pe int) string    { return fmt.Sprintf("PE%d_PAPI.bin", pe) }

const (
	overallBinFile  = "overall.bin"
	physicalBinFile = "physical.bin"
	segmentsBinFile = "segments.bin"
)

// newColumns returns ncols empty columns with room for rows values each,
// carved from one allocation (a column that outgrows its share
// reallocates alone).
func newColumns(ncols, rows int) [][]int64 {
	cols, backing := make([][]int64, ncols), make([]int64, ncols*rows)
	for i := range cols {
		cols[i] = backing[i*rows : i*rows : (i+1)*rows]
	}
	return cols
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binWriter encodes one APBF file. Errors are sticky and surface from
// finish (matching the bufio.Writer convention of the CSV stream path).
type binWriter struct {
	w     *bufio.Writer
	ncols int
	cols  [][]int64
	strs  []string
	n     int
	tmp   [binary.MaxVarintLen64]byte
	err   error
}

// newBinWriter writes the header and returns an encoder for kind/ncols.
func newBinWriter(w *bufio.Writer, kind byte, ncols int) *binWriter {
	b := &binWriter{w: w, ncols: ncols, cols: newColumns(ncols, binBlockRows)}
	if _, err := w.WriteString(binMagic); err != nil {
		b.err = err
	}
	b.writeByte(binVersion)
	b.writeByte(kind)
	b.writeUvarint(uint64(ncols))
	return b
}

func (b *binWriter) writeByte(c byte) {
	if b.err == nil {
		b.err = b.w.WriteByte(c)
	}
}

func (b *binWriter) writeUvarint(u uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.tmp[:], u)
	_, b.err = b.w.Write(b.tmp[:n])
}

// push appends one row. vals must have exactly ncols entries (the
// pad/truncate policy for ragged records is the caller's).
func (b *binWriter) push(vals ...int64) {
	for i := 0; i < b.ncols; i++ {
		b.cols[i] = append(b.cols[i], vals[i])
	}
	b.n++
	if b.n >= binBlockRows {
		b.flushBlock()
	}
}

// pushStr appends one row of a string-bearing kind (segments).
func (b *binWriter) pushStr(s string, vals ...int64) {
	b.strs = append(b.strs, s)
	b.push(vals...)
}

// flushBlock emits the buffered rows as one block.
func (b *binWriter) flushBlock() {
	if b.n == 0 {
		return
	}
	b.writeUvarint(uint64(b.n))
	for _, s := range b.strs {
		b.writeUvarint(uint64(len(s)))
		if b.err == nil {
			_, b.err = b.w.WriteString(s)
		}
	}
	for c := range b.cols {
		for _, v := range b.cols[c] {
			b.writeUvarint(zigzag(v))
		}
		b.cols[c] = b.cols[c][:0]
	}
	b.strs = b.strs[:0]
	b.n = 0
}

// finish flushes the final partial block and reports any sticky error.
// It does not flush the underlying bufio.Writer.
func (b *binWriter) finish() error {
	b.flushBlock()
	return b.err
}

// binReader decodes one APBF file block by block, reusing column
// scratch across blocks. It counts the bytes its bufio layer pulls from
// the file, so it knows where each block it decodes sits.
type binReader struct {
	src     byteCounter
	br      *bufio.Reader
	path    string
	ncols   int
	rowBase int64 // file-order index of the next block's first row
	cols    [][]int64
	strs    []string
	row     []int64 // rowCounters' scratch, like the CSV line scratch
}

type byteCounter struct {
	r io.Reader
	n int64
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// newBinReader validates the header of the APBF file r. An empty file is
// reported as (nil, nil): zero records, like an empty CSV file.
func newBinReader(r io.Reader, path string, wantKind byte, minCols int) (*binReader, error) {
	d := &binReader{src: byteCounter{r: r}, path: path}
	d.br = bufio.NewReaderSize(&d.src, 64<<10)
	if _, err := d.br.Peek(1); err == io.EOF {
		return nil, nil
	}
	var hdr [6]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: %s: truncated binary header: %w", path, err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("trace: %s: bad magic %q in binary header", path, hdr[:4])
	}
	if hdr[4] != binVersion {
		return nil, fmt.Errorf("trace: %s: unsupported binary trace version %d (want %d)", path, hdr[4], binVersion)
	}
	if hdr[5] != wantKind {
		return nil, fmt.Errorf("trace: %s: binary record kind %d, want %d", path, hdr[5], wantKind)
	}
	ncols64, err := binary.ReadUvarint(d.br)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: truncated binary header: %w", path, err)
	}
	if ncols64 < uint64(minCols) || ncols64 > maxBinCols {
		return nil, fmt.Errorf("trace: %s: binary header claims %d columns, want %d..%d",
			path, ncols64, minCols, maxBinCols)
	}
	d.ncols = int(ncols64)
	d.cols = newColumns(d.ncols, binBlockRows)
	return d, nil
}

// block locates one decoded block: the bytes it occupies in its file and
// the file-order index of its first row.
type block struct {
	off, length, rowBase int64
	rows                 int
}

// pos is the file offset of the next byte the decoder will consume.
func (d *binReader) pos() int64 { return d.src.n - int64(d.br.Buffered()) }

// seek points the decoder at r, the bytes of its file from the block
// boundary at offset off on, whose first row has index rowBase.
func (d *binReader) seek(r io.Reader, off, rowBase int64) {
	d.src = byteCounter{r: r, n: off}
	d.br.Reset(&d.src)
	d.rowBase = rowBase
}

// eachBlock is the package's one block loop and readBlock's only caller:
// it decodes block after block into d's columns and hands visit each
// one's extent. It ends at a clean EOF, at a torn or corrupt block (lost
// is the number of records it claimed) or at visit's first error.
func (d *binReader) eachBlock(withStrings bool, visit func(b block) error) (lost int, err error) {
	for {
		b := block{off: d.pos(), rowBase: d.rowBase}
		n, lost, err := d.readBlock(withStrings)
		if err != nil || n == 0 {
			return lost, err
		}
		b.rows, b.length = n, d.pos()-b.off
		d.rowBase += int64(n)
		if err := visit(b); err != nil {
			return 0, err
		}
	}
}

// readBlock decodes the next block into d.cols (and d.strs when
// withStrings). It returns n == 0 at a clean EOF. A torn or corrupt
// block returns (lost, err) where lost is the number of records the
// block claimed (the tolerant caller's skipped increment).
func (d *binReader) readBlock(withStrings bool) (n, lost int, err error) {
	n64, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 1, fmt.Errorf("trace: %s: torn binary block header: %w", d.path, err)
	}
	if n64 == 0 || n64 > maxBinRows {
		return 0, 1, fmt.Errorf("trace: %s: binary block claims %d rows (max %d)", d.path, n64, maxBinRows)
	}
	n = int(n64)
	if withStrings {
		d.strs = d.strs[:0]
		for i := 0; i < n; i++ {
			l64, err := binary.ReadUvarint(d.br)
			if err != nil {
				return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
			}
			if l64 > maxBinStr {
				return 0, n, fmt.Errorf("trace: %s: binary string length %d (max %d)", d.path, l64, maxBinStr)
			}
			buf := make([]byte, l64)
			if _, err := io.ReadFull(d.br, buf); err != nil {
				return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
			}
			d.strs = append(d.strs, string(buf))
		}
	}
	for c := 0; c < d.ncols; c++ {
		col := d.cols[c][:0]
		for i := 0; i < n; i++ {
			u, err := binary.ReadUvarint(d.br)
			if err != nil {
				return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
			}
			col = append(col, unzigzag(u))
		}
		d.cols[c] = col
	}
	return n, 0, nil
}

// Per-kind row codecs (the kind table's toRow / fromRow), mirroring the
// CSV codecs in fastio.go.

// padCounters copies a record's counters into its row's counter columns.
// Columnar blocks need a uniform width; ragged counter lists (possible
// only in hand-edited CSV) pad with zeros / truncate.
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
	if d.row == nil {
		d.row = make([]int64, d.ncols-first)
	}
	counters := d.row[:d.ncols-first]
	for c := first; c < d.ncols; c++ {
		counters[c-first] = d.cols[c][i]
	}
	return counters
}

func logicalToRow(r LogicalRecord, row []int64) string {
	row[0], row[1], row[2] = int64(r.SrcNode), int64(r.SrcPE), int64(r.DstNode)
	row[3], row[4] = int64(r.DstPE), int64(r.MsgSize)
	return ""
}

func logicalFromRow(d *binReader, i int) LogicalRecord {
	return LogicalRecord{
		SrcNode: int(d.cols[0][i]), SrcPE: int(d.cols[1][i]),
		DstNode: int(d.cols[2][i]), DstPE: int(d.cols[3][i]), MsgSize: int(d.cols[4][i]),
	}
}

func papiToRow(r PAPIRecord, row []int64) string {
	row[0], row[1] = int64(r.SrcNode), int64(r.SrcPE)
	row[2], row[3] = int64(r.DstNode), int64(r.DstPE)
	row[4], row[5], row[6] = int64(r.PktSize), int64(r.MailboxID), int64(r.NumSends)
	padCounters(row[7:], r.Counters)
	return ""
}

func papiFromRow(d *binReader, i int) PAPIRecord {
	return PAPIRecord{
		SrcNode: int(d.cols[0][i]), SrcPE: int(d.cols[1][i]),
		DstNode: int(d.cols[2][i]), DstPE: int(d.cols[3][i]),
		PktSize: int(d.cols[4][i]), MailboxID: int(d.cols[5][i]), NumSends: int(d.cols[6][i]),
		Counters: d.rowCounters(7, i),
	}
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
	// with Cycles == 0, exactly as CSV does.
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
