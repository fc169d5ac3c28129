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
	// csvRecBytes / binRecBytes are low bytes-per-record figures, before
	// the counter columns, for sizing a collecting reader's slices from
	// the file size (shardRows); 0 means the shard is small enough not to
	// bother. For the send kinds they are the shortest row there is - a
	// digit and a separator per CSV field, a byte per APBF column, and 2
	// and 1 more per counter - so a send shard is never under-estimated.
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
	// index with or hold: above all one that names a PE outside the world
	// the meta file declares. The analysis layer indexes matrices and
	// per-PE slices with these values directly, so admitting them would
	// turn a corrupt trace line into an index-out-of-range panic (or a
	// silently dropped record) during visualization. pe is the shard's PE
	// (-1 for the run-wide files); a send row must name it as its source
	// (checkSend).
	check func(r T, m *meta, pe int) error
}

// shared names an artifact the whole run writes once.
func shared(name string) func(int) string { return func(int) string { return name } }

var logicalKind = kind[LogicalRecord]{
	csvFile: logicalFile, binFile: logicalBinFile,
	binKind: binKindLogical, cols: 5, minCols: 5,
	csvRecBytes: 10, binRecBytes: 5,
	appendCSV: appendLogical, parseCSV: parseLogical,
	toRow: logicalToRow, fromRow: logicalFromRow,
	check: func(r LogicalRecord, m *meta, pe int) error {
		if err := checkSend("logical", m, pe, r.SrcNode, r.SrcPE, r.DstNode, r.DstPE); err != nil {
			return err
		}
		return checkWidth("logical", "msgSize", r.MsgSize)
	},
}

var papiKind = kind[PAPIRecord]{
	csvFile: papiFile, binFile: papiBinFile,
	binKind: binKindPAPI, cols: 7, minCols: 7, counters: true,
	csvRecBytes: 14, binRecBytes: 7,
	appendCSV: appendPAPI, parseCSV: parsePAPI,
	toRow: papiToRow, fromRow: papiFromRow,
	check: func(r PAPIRecord, m *meta, pe int) error {
		err := checkSend("PAPI", m, pe, r.SrcNode, r.SrcPE, r.DstNode, r.DstPE)
		if err == nil {
			err = checkWidth("PAPI", "pktSize", r.PktSize)
		}
		if err == nil {
			err = checkWidth("PAPI", "MAILBOXID", r.MailboxID)
		}
		if err == nil {
			err = checkWidth("PAPI", "NUM_SENDS", r.NumSends)
		}
		return err
	},
}

var overallKind = kind[OverallRecord]{
	csvFile: shared(overallFile), binFile: shared(overallBinFile),
	binKind: binKindOverall, cols: 4, minCols: 4,
	// Only "Absolute" lines carry data; "Relative" lines are re-derivable.
	csvPrefix: "Absolute ",
	appendCSV: appendOverall, parseCSV: parseOverall,
	toRow: overallToRow, fromRow: overallFromRow,
	check: func(r OverallRecord, m *meta, _ int) error { return checkPE("overall", "", r.PE, m.npes) },
}

var physicalKind = kind[PhysicalRecord]{
	csvFile: shared(physicalFile), binFile: shared(physicalBinFile),
	binKind: binKindPhysical, cols: binPhysicalCols, minCols: binPhysicalMinCols,
	csvRecBytes: 16, binRecBytes: 8,
	appendCSV: appendPhysical, parseCSV: parsePhysical,
	toRow: physicalToRow, fromRow: physicalFromRow,
	check: func(r PhysicalRecord, m *meta, _ int) error { return checkPhysical(r, m.npes) },
}

// checkPhysical is named so that the index paths can call it statically.
func checkPhysical(r PhysicalRecord, npes int) error {
	if r.Kind < conveyor.LocalSend || r.Kind > conveyor.NonblockProgress { // only APBF can carry one
		return fmt.Errorf("trace: physical record with unknown send type %d", r.Kind)
	}
	return checkEndpoints("physical", r.SrcPE, r.DstPE, npes)
}

var segmentsKind = kind[SegmentRecord]{
	csvFile: shared(segmentsFile), binFile: shared(segmentsBinFile),
	binKind: binKindSegments, cols: 3, minCols: 3, counters: true, hasStr: true,
	appendCSV: appendSegment, parseCSV: parseSegment,
	toRow: segmentToRow, fromRow: segmentFromRow,
	check: func(r SegmentRecord, m *meta, _ int) error { return checkPE("segments", "", r.PE, m.npes) },
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

// checkSend is the admission rule for a send row (logical or PAPI), which
// a Set holds packed: the source is the PE whose slice holds it and the
// nodes are PE / PEs_per_node, none of them stored (DESIGN.md §10). So
// beyond the PE-range rule the row must name its shard's PE as source and
// its PEs' nodes; any other row would be folded or written back under
// another source than the one it names.
func checkSend(kind string, m *meta, pe, srcNode, src, dstNode, dst int) error {
	if err := checkEndpoints(kind, src, dst, m.npes); err != nil {
		return err
	}
	if src != pe || srcNode != src/m.perNode || dstNode != dst/m.perNode {
		return sendError(kind, m, pe, srcNode, src, dstNode, dst)
	}
	return nil
}

//go:noinline
func sendError(kind string, m *meta, pe, srcNode, src, dstNode, dst int) error {
	switch {
	case src != pe:
		return fmt.Errorf("trace: %s record with src PE %d in PE %d's shard", kind, src, pe)
	case srcNode != src/m.perNode:
		return fmt.Errorf("trace: %s record with src node %d for PE %d at %d PEs per node", kind, srcNode, src, m.perNode)
	}
	return fmt.Errorf("trace: %s record with dst node %d for PE %d at %d PEs per node", kind, dstNode, dst, m.perNode)
}

// checkWidth holds a send row's other fields to the packed record's 32
// bits.
func checkWidth(kind, field string, v int) error {
	if int(int32(v)) != v {
		return fmt.Errorf("trace: %s record's %s %d does not fit 32 bits", kind, field, v)
	}
	return nil
}
