package trace

import (
	"fmt"

	"actorprof/internal/conveyor"
)

// The set of trace record kinds is closed: the paper fixes four artifacts
// (PEi_send.csv, PEi_PAPI.csv, overall.txt, physical.txt) and this repo
// adds segments.txt. Everything that differs between them - file names,
// the APBF header, the CSV and APBF row codecs, the PE-range rule - is one
// kind descriptor below; scanShard, sink and walk (pipeline.go) are
// written once against it. Adding a column means editing that kind's four
// codec functions; adding a kind means one more descriptor and one more
// line in walk, WriteFiles and the consumer struct.
type kind[T any] struct {
	// csvFile / binFile name PE pe's shard (shared artifacts ignore pe).
	csvFile, binFile func(pe int) string

	// APBF header: the kind byte, the columns the writer emits (before
	// one column per configured PAPI event when counters is set), the
	// fewest columns a reader accepts, and whether blocks carry a string
	// column.
	binKind       byte
	cols, minCols int
	counters      bool
	hasStr        bool

	// csvPrefix, when set, selects the text lines that carry records;
	// other lines are derived data and are ignored, not skipped.
	csvPrefix string
	// csvRecBytes / binRecBytes are conservative (low) bytes-per-record
	// figures for sizing a collecting reader's slice from the file size;
	// 0 means the shard is small enough not to bother.
	csvRecBytes, binRecBytes int

	// appendCSV appends r's text line(s); events are the PAPI event
	// names in config order. parseCSV parses one trimmed, non-empty line.
	appendCSV func(buf []byte, r T, events []string) []byte
	parseCSV  func(line []byte, s *csvScratch) (T, error)
	// toRow fills one APBF row (len(row) is the file's column count) and
	// returns the string column's value; fromRow decodes row i of the
	// reader's current block.
	toRow   func(r T, row []int64) string
	fromRow func(d *binReader, i int) T
	// check rejects a decoded record the rest of the program could not
	// index with: above all one that names a PE outside the world the
	// meta file declares. The analysis layer indexes matrices and per-PE
	// slices with these values directly, so admitting them would turn a
	// corrupt trace line into an index-out-of-range panic (or a silently
	// dropped record) during visualization.
	check func(r T, npes int) error
}

// shared names an artifact the whole run writes once.
func shared(name string) func(int) string { return func(int) string { return name } }

var logicalKind = kind[LogicalRecord]{
	csvFile: logicalFile, binFile: logicalBinFile,
	binKind: binKindLogical, cols: 5, minCols: 5,
	csvRecBytes: 10, binRecBytes: 4,
	appendCSV: appendLogical, parseCSV: parseLogical,
	toRow: logicalToRow, fromRow: logicalFromRow,
	check: func(r LogicalRecord, npes int) error { return checkEndpoints("logical", r.SrcPE, r.DstPE, npes) },
}

var papiKind = kind[PAPIRecord]{
	csvFile: papiFile, binFile: papiBinFile,
	binKind: binKindPAPI, cols: 7, minCols: 7, counters: true,
	csvRecBytes: 20, binRecBytes: 8,
	appendCSV: appendPAPI, parseCSV: parsePAPI,
	toRow: papiToRow, fromRow: papiFromRow,
	check: func(r PAPIRecord, npes int) error { return checkEndpoints("PAPI", r.SrcPE, r.DstPE, npes) },
}

var overallKind = kind[OverallRecord]{
	csvFile: shared(overallFile), binFile: shared(overallBinFile),
	binKind: binKindOverall, cols: 4, minCols: 4,
	// Only "Absolute" lines carry data; "Relative" lines are re-derivable.
	csvPrefix: "Absolute ",
	appendCSV: appendOverall, parseCSV: parseOverall,
	toRow: overallToRow, fromRow: overallFromRow,
	check: func(r OverallRecord, npes int) error { return checkPE("overall", "", r.PE, npes) },
}

var physicalKind = kind[PhysicalRecord]{
	csvFile: shared(physicalFile), binFile: shared(physicalBinFile),
	binKind: binKindPhysical, cols: binPhysicalCols, minCols: binPhysicalMinCols,
	appendCSV: appendPhysical, parseCSV: parsePhysical,
	toRow: physicalToRow, fromRow: physicalFromRow,
	check: checkPhysical,
}

// checkPhysical is named so that the index paths can call it statically.
func checkPhysical(r PhysicalRecord, npes int) error {
	if r.Kind < conveyor.LocalSend || r.Kind > conveyor.NonblockProgress { // only APBF can carry one
		return fmt.Errorf("trace: physical record with unknown send type %d", r.Kind)
	}
	return checkEndpoints("physical", r.SrcPE, r.DstPE, npes)
}

// physicalPartKind is the physical kind as a streaming collector leaves
// it before Finalize: one .part shard per PE.
var physicalPartKind = func() kind[PhysicalRecord] {
	k := physicalKind
	k.csvFile, k.binFile = physicalPart, physicalPartBin
	return k
}()

var segmentsKind = kind[SegmentRecord]{
	csvFile: shared(segmentsFile), binFile: shared(segmentsBinFile),
	binKind: binKindSegments, cols: 3, minCols: 3, counters: true, hasStr: true,
	appendCSV: appendSegment, parseCSV: parseSegment,
	toRow: segmentToRow, fromRow: segmentFromRow,
	check: func(r SegmentRecord, npes int) error { return checkPE("segments", "", r.PE, npes) },
}

// checkPE is the PE-range rule, for every kind: role says which of the
// record's PEs this is ("" when it has only one). The error is built out
// of line so that the rule itself inlines into the per-record check hooks.
func checkPE(kind, role string, pe, npes int) error {
	if pe < 0 || pe >= npes {
		return peRangeError(kind, role, pe, npes)
	}
	return nil
}

//go:noinline
func peRangeError(kind, role string, pe, npes int) error {
	return fmt.Errorf("trace: %s record with %sPE %d outside [0, %d)", kind, role, pe, npes)
}

// checkEndpoints applies the rule to a record's source and destination.
func checkEndpoints(kind string, src, dst, npes int) error {
	if err := checkPE(kind, "src ", src, npes); err != nil {
		return err
	}
	return checkPE(kind, "dst ", dst, npes)
}
