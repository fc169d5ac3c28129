package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// The time index ("APTX": ActorProf Time indeX) is a sidecar to
// physical.bin that makes windowed queries O(window) instead of
// O(trace). It records, per APBF block of the data file, the block's
// byte extent and the inclusive span of record timestamps inside it, so
// a query for [t0, t1) seeks to and decodes only the blocks whose spans
// intersect the window. On top of the block table sits a downsampled
// pyramid: level 0 folds the whole trace into at most pyramidBase
// equal-width buckets (event count, buffer bytes, per-kind counts), and
// each higher level halves the bucket count by folding adjacent pairs,
// so a viewer can ask for any zoom level and receive a bounded payload
// without touching the data file at all.
//
//	header  : "APTX" | version (1) | domain (1) | uvarint ncols
//	          uvarint dataSize | uvarint nrows | uvarint nblocks
//	blocks  : nblocks x { uvarint offset | uvarint length | uvarint rows
//	                      zigzag t0 | zigzag t1 }
//	pyramid : zigzag tmin | zigzag tmax | uvarint width0 | uvarint nlevels
//	          per level: uvarint nbuckets, then nbuckets x
//	          { uvarint count | uvarint bytes | uvarint k0 | k1 | k2 }
//
// The index is written by an explicit pass over a finished trace
// (BuildTimeIndex, behind `actorprof export -index`), and
// its reader is paranoid: any truncation, corruption, or staleness
// (the data file changed size since the index was built) makes
// LoadTimeIndex return an error, and every query path falls back to a
// full scan. A bad index can cost time, never correctness.
const (
	timeIndexFile = "physical.idx"

	aptxMagic   = "APTX"
	aptxVersion = 1

	// pyramidBase caps level 0 of the pyramid; higher levels halve it.
	// 4096 buckets keep the whole pyramid under ~200 KB while giving a
	// 1920-pixel-wide viewer sub-pixel resolution at full zoom-out.
	pyramidBase = 4096

	// maxIndexBytes bounds what LoadTimeIndex will read: an index is
	// O(blocks + pyramid), so anything larger is corrupt.
	maxIndexBytes = 64 << 20
)

// ClockDomain says what the physical-trace timestamps mean. The two
// domains must never be interleaved in one stream: either every record
// carries a virtual-clock cycle count, or every record is addressed by
// its global sequence number.
type ClockDomain byte

const (
	// DomainSequence addresses records by their position in file order:
	// record i has timestamp i. It is the fallback for traces whose
	// records carry no clock values (imported paper layouts, pre-cycles
	// binaries).
	DomainSequence ClockDomain = 0
	// DomainCycles uses the initiating PE's virtual-clock cycle count.
	DomainCycles ClockDomain = 1
)

func (d ClockDomain) String() string {
	if d == DomainCycles {
		return "cycles"
	}
	return "sequence"
}

// PyramidBucket is one fold of the downsampled pyramid: the number of
// transfers whose timestamps land in the bucket, their summed buffer
// bytes, and the count per send kind (local, nonblock, progress).
type PyramidBucket struct {
	Count int64    `json:"count"`
	Bytes int64    `json:"bytes"`
	Kinds [3]int64 `json:"kinds"`
}

func (b *PyramidBucket) fold(o PyramidBucket) {
	b.Count += o.Count
	b.Bytes += o.Bytes
	for i := range b.Kinds {
		b.Kinds[i] += o.Kinds[i]
	}
}

// blockSpan is one data-file block, as the block iterator located it,
// and the inclusive timestamp span of the records inside it.
type blockSpan struct {
	block
	t0, t1 int64
}

type pyramidLevel struct {
	width   int64
	buckets []PyramidBucket
}

// TimeIndex is the decoded sidecar. It is immutable after load and safe
// for concurrent readers.
type TimeIndex struct {
	Domain   ClockDomain
	TMin     int64 // smallest record timestamp (0 on an empty trace)
	TMax     int64 // largest record timestamp (-1 on an empty trace)
	ncols    int
	npes     int // from the meta file, not the sidecar: the PE range Query checks records against
	dataSize int64
	nrows    int64
	blocks   []blockSpan
	levels   []pyramidLevel
}

// NumBlocks reports how many data-file blocks the index covers; a
// query's BlocksRead is bounded by it.
func (ix *TimeIndex) NumBlocks() int { return len(ix.blocks) }

// NumLevels reports the pyramid depth (level 0 is the finest).
func (ix *TimeIndex) NumLevels() int { return len(ix.levels) }

// Rows reports the total record count the index covers.
func (ix *TimeIndex) Rows() int64 { return ix.nrows }

// BucketWidth reports the timestamp width of one bucket at pyramid
// level lvl (clamped to the available levels).
func (ix *TimeIndex) BucketWidth(lvl int) int64 {
	if len(ix.levels) == 0 {
		return 0
	}
	if lvl < 0 {
		lvl = 0
	}
	if lvl >= len(ix.levels) {
		lvl = len(ix.levels) - 1
	}
	return ix.levels[lvl].width
}

// clockRule is the clock-domain rule, shown every physical record of a
// trace: the cycles domain only when there are records and each carries a
// nonzero clock. One zeroed clock anywhere (an import, a pre-cycles
// binary, a hand-built fixture) demotes the whole trace to the sequence
// domain - the two are never interleaved.
type clockRule struct {
	records   int64
	zeroClock bool
}

func (c *clockRule) see(r PhysicalRecord) {
	c.records++
	c.zeroClock = c.zeroClock || r.Cycles == 0
}

func (c clockRule) domain() ClockDomain {
	if c.records > 0 && !c.zeroClock {
		return DomainCycles
	}
	return DomainSequence
}

// stamp is the timestamp, in domain d, of the record at file-order index seq.
func (d ClockDomain) stamp(seq int64, r PhysicalRecord) int64 {
	if d == DomainCycles {
		return r.Cycles
	}
	return seq
}

// newLevel0 sizes the finest pyramid level over the inclusive timestamp
// span [tmin, tmax]: at most pyramidBase buckets of equal width.
func newLevel0(tmin, tmax int64) pyramidLevel {
	span := tmax - tmin + 1
	width := max((span+pyramidBase-1)/pyramidBase, 1)
	return pyramidLevel{width: width, buckets: make([]PyramidBucket, (span+width-1)/width)}
}

// add folds one record, stamped ts on a span starting at tmin, into level 0.
func (l pyramidLevel) add(tmin, ts int64, r PhysicalRecord) {
	b := &l.buckets[(ts-tmin)/l.width]
	b.Count++
	b.Bytes += int64(r.BufBytes)
	if r.Kind >= 0 && int(r.Kind) < len(b.Kinds) {
		b.Kinds[r.Kind]++
	}
}

// BuildTimeIndex builds (or rebuilds) the physical.idx sidecar for a
// trace directory. It returns built=false without error when the
// directory has no physical trace to index. A torn tail
// is not an error - the complete prefix is indexed, matching the tolerant
// readers - but a record the readers reject is: no sidecar is written and
// queries keep falling back to the full scan.
func BuildTimeIndex(dir string) (built bool, err error) {
	f, err := os.Open(filepath.Join(dir, physicalBinFile))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return false, err
	}
	ix := &TimeIndex{dataSize: fi.Size()}
	// pass runs the block iterator over the file from its first block; a
	// torn tail ends it quietly.
	var d binReader
	pass := func(visit func(b block) error) error {
		d.reset(io.NewSectionReader(f, 0, ix.dataSize), d.data[:0], 0, 0)
		ok, err := d.header(f.Name(), binKindPhysical, binPhysicalMinCols)
		if err != nil {
			return fmt.Errorf("trace: indexing %s: %w", f.Name(), err)
		}
		if !ok { // an empty file indexes as zero blocks
			return nil
		}
		ix.ncols = d.ncols
		if lost, err := d.eachBlock(false, visit); err != nil && lost == 0 {
			return fmt.Errorf("trace: indexing %s: %w", f.Name(), err)
		}
		return nil
	}

	// Pass 1: block table with cycle spans, clock domain, global span.
	var rule clockRule
	err = pass(func(b block) error {
		span := blockSpan{block: b, t0: math.MaxInt64, t1: math.MinInt64}
		for i := 0; i < b.rows; i++ {
			r := physicalFromRow(&d, i)
			if err := checkPhysical(r, m.npes); err != nil {
				return err
			}
			span.t0, span.t1 = min(span.t0, r.Cycles), max(span.t1, r.Cycles)
			rule.see(r)
		}
		ix.blocks = append(ix.blocks, span)
		ix.nrows += int64(b.rows)
		return nil
	})
	if err != nil {
		return false, err
	}
	ix.Domain = rule.domain()
	ix.TMin, ix.TMax = 0, -1
	for i := range ix.blocks {
		b := &ix.blocks[i]
		if ix.Domain == DomainSequence {
			// A block's span is its global row range, whatever partial
			// cycle values it carries.
			b.t0, b.t1 = b.rowBase, b.rowBase+int64(b.rows)-1
		}
		if i == 0 {
			ix.TMin, ix.TMax = b.t0, b.t1
		}
		ix.TMin, ix.TMax = min(ix.TMin, b.t0), max(ix.TMax, b.t1)
	}

	// Pass 2, over the records pass 1 checked: fold level 0, then halve upward.
	if ix.nrows > 0 {
		level0 := newLevel0(ix.TMin, ix.TMax)
		err = pass(func(b block) error {
			for i := 0; i < b.rows; i++ {
				r := physicalFromRow(&d, i)
				level0.add(ix.TMin, ix.Domain.stamp(b.rowBase+int64(i), r), r)
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		ix.levels = buildPyramid(level0)
	}

	if err := writeTimeIndex(dir, ix); err != nil {
		return false, err
	}
	return true, nil
}

// buildPyramid stacks levels above level 0 by folding adjacent bucket
// pairs until a single bucket summarizes the whole trace. The invariant
// tested by the property suite: level L+1 bucket i is exactly the fold
// of level L buckets 2i and 2i+1.
func buildPyramid(level0 pyramidLevel) []pyramidLevel {
	levels := []pyramidLevel{level0}
	for len(levels[len(levels)-1].buckets) > 1 {
		prev := levels[len(levels)-1]
		next := pyramidLevel{
			width:   prev.width * 2,
			buckets: make([]PyramidBucket, (len(prev.buckets)+1)/2),
		}
		for i, b := range prev.buckets {
			next.buckets[i/2].fold(b)
		}
		levels = append(levels, next)
	}
	return levels
}

// writeTimeIndex encodes ix and atomically replaces physical.idx.
func writeTimeIndex(dir string, ix *TimeIndex) error {
	buf := append([]byte(aptxMagic), aptxVersion, byte(ix.Domain))
	put := func(us ...uint64) {
		for _, u := range us {
			buf = binary.AppendUvarint(buf, u)
		}
	}
	put(uint64(ix.ncols), uint64(ix.dataSize), uint64(ix.nrows), uint64(len(ix.blocks)))
	for _, b := range ix.blocks {
		put(uint64(b.off), uint64(b.length), uint64(b.rows), zigzag(b.t0), zigzag(b.t1))
	}
	width0 := int64(0)
	if len(ix.levels) > 0 {
		width0 = ix.levels[0].width
	}
	put(zigzag(ix.TMin), zigzag(ix.TMax), uint64(width0), uint64(len(ix.levels)))
	for _, lvl := range ix.levels {
		put(uint64(len(lvl.buckets)))
		for _, b := range lvl.buckets {
			put(uint64(b.Count), uint64(b.Bytes), uint64(b.Kinds[0]), uint64(b.Kinds[1]), uint64(b.Kinds[2]))
		}
	}
	tmpPath := filepath.Join(dir, timeIndexFile+".tmp")
	if err := os.WriteFile(tmpPath, buf, 0o644); err != nil {
		return fmt.Errorf("trace: writing time index: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, timeIndexFile)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("trace: writing time index: %w", err)
	}
	return nil
}

// LoadTimeIndex reads and validates physical.idx. Any truncation,
// corruption, or staleness (the data file's size no longer matches the
// size recorded at build time) is an error; callers fall back to a full
// scan. The decoder never panics on hostile bytes - FuzzTimeIndexBlock
// pins that.
func LoadTimeIndex(dir string) (*TimeIndex, error) {
	path := filepath.Join(dir, timeIndexFile)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxIndexBytes {
		return nil, fmt.Errorf("trace: %s: index is %d bytes (max %d)", path, fi.Size(), maxIndexBytes)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := decodeTimeIndex(raw, path)
	if err != nil {
		return nil, err
	}
	dfi, err := os.Stat(filepath.Join(dir, physicalBinFile))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: index has no data file: %w", path, err)
	}
	if dfi.Size() != ix.dataSize {
		return nil, fmt.Errorf("trace: %s: stale index (data file is %d bytes, index built over %d)",
			path, dfi.Size(), ix.dataSize)
	}
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, err
	}
	ix.npes = m.npes
	return ix, nil
}

// decodeTimeIndex parses the APTX byte stream. Separated from the file
// and staleness plumbing so the fuzzer can drive it directly.
func decodeTimeIndex(raw []byte, path string) (*TimeIndex, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("trace: %s: %s", path, fmt.Sprintf(format, args...))
	}
	hdr := len(aptxMagic) + 2
	if len(raw) < hdr {
		return nil, bad("truncated index header")
	}
	if string(raw[:len(aptxMagic)]) != aptxMagic {
		return nil, bad("bad magic %q in index header", raw[:len(aptxMagic)])
	}
	if raw[len(aptxMagic)] != aptxVersion {
		return nil, bad("unsupported index version %d (want %d)", raw[len(aptxMagic)], aptxVersion)
	}
	domain := ClockDomain(raw[len(aptxMagic)+1])
	if domain != DomainSequence && domain != DomainCycles {
		return nil, bad("unknown clock domain %d", domain)
	}
	// get decodes the next varint off raw; the first failure sticks and
	// names the field it cut.
	p, cut := hdr, ""
	get := func(what string) uint64 {
		u, next, err := uvarint(raw, p)
		if err != nil && cut == "" {
			cut = what
		}
		p = next
		return u
	}
	truncated := func() error { return bad("truncated index: %s", cut) }
	ix := &TimeIndex{Domain: domain}
	ncols, dataSize, nrows, nblocks := get("ncols"), get("data size"), get("row count"), get("block count")
	switch {
	case cut != "":
		return nil, truncated()
	case ncols > maxBinCols:
		return nil, bad("index claims %d data columns (max %d)", ncols, maxBinCols)
	case nblocks > uint64(len(raw)-p)/5 || int64(nblocks) > int64(dataSize)/2+1:
		// A block takes five index bytes and two data bytes at least: both
		// bound the table before it is sized.
		return nil, bad("index claims %d blocks over a %d-byte data file", nblocks, int64(dataSize))
	}
	ix.ncols, ix.dataSize, ix.nrows = int(ncols), int64(dataSize), int64(nrows)
	ix.blocks = make([]blockSpan, nblocks)
	var prevEnd, rowBase int64
	for i := range ix.blocks {
		b := &ix.blocks[i]
		off, length, rows := get("block offset"), get("block length"), get("block rows")
		b.t0, b.t1 = unzigzag(get("block span")), unzigzag(get("block span"))
		if cut != "" {
			return nil, truncated()
		}
		b.off, b.length, b.rows, b.rowBase = int64(off), int64(length), int(rows), rowBase
		switch {
		case b.rows <= 0 || b.rows > maxBinRows:
			return nil, bad("block %d claims %d rows (max %d)", i, b.rows, maxBinRows)
		case int64(b.rows)*int64(ix.ncols) > b.length:
			return nil, bad("block %d claims %d rows of %d columns in %d bytes", i, b.rows, ix.ncols, b.length)
		case b.off < prevEnd || b.length <= 0 || b.off+b.length > ix.dataSize:
			return nil, bad("block %d extent [%d, %d) escapes the %d-byte data file", i, b.off, b.off+b.length, ix.dataSize)
		case b.t0 > b.t1:
			return nil, bad("block %d span [%d, %d] is inverted", i, b.t0, b.t1)
		}
		prevEnd = b.off + b.length
		rowBase += int64(b.rows)
	}
	if rowBase != ix.nrows {
		return nil, bad("blocks hold %d rows, header claims %d", rowBase, ix.nrows)
	}
	ix.TMin, ix.TMax = unzigzag(get("tmin")), unzigzag(get("tmax"))
	width0, nlevels := get("bucket width"), get("level count")
	switch {
	case cut != "":
		return nil, truncated()
	case nlevels > 64:
		return nil, bad("index claims %d pyramid levels", nlevels)
	case nlevels > 0 && (width0 == 0 || ix.TMin > ix.TMax):
		return nil, bad("pyramid over an empty span")
	}
	ix.levels = make([]pyramidLevel, nlevels)
	width := int64(width0)
	for l := range ix.levels {
		nb := get("bucket count")
		if cut != "" {
			return nil, truncated()
		}
		if nb > pyramidBase {
			return nil, bad("level %d claims %d buckets (max %d)", l, nb, pyramidBase)
		}
		lvl := pyramidLevel{width: width, buckets: make([]PyramidBucket, nb)}
		for i := range lvl.buckets {
			b := &lvl.buckets[i]
			for _, v := range []*int64{&b.Count, &b.Bytes, &b.Kinds[0], &b.Kinds[1], &b.Kinds[2]} {
				if *v = int64(get("bucket")); *v < 0 {
					return nil, bad("negative bucket value at level %d", l)
				}
			}
			if cut != "" {
				return nil, truncated()
			}
		}
		ix.levels[l] = lvl
		width *= 2
	}
	if p != len(raw) {
		return nil, bad("%d trailing bytes after index", len(raw)-p)
	}
	return ix, nil
}
