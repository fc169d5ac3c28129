package trace

import (
	"fmt"

	"actorprof/internal/conveyor"
)

// The set of trace record kinds is closed: the paper fixes four artifacts
// (PEi_send.csv, PEi_PAPI.csv, overall.txt, physical.txt) and this repo
// adds segments.txt. Everything that differs between them - file names,
// the APBF header and row codecs, the paper's line codec, the PE-range
// rule - is one kind descriptor below; scan, writeShardFill and walk
// (pipeline.go) and the paper's layout (paper.go) are written once
// against it. Adding a column means editing that kind's codec functions
// (a send kind's APBF codec is its column path, binary.go); adding a kind
// means one more descriptor and one more line in walk, WriteFiles,
// ImportPaper and the consumer struct.
type kind[T any] struct {
	// binFile names PE pe's APBF shard, csvFile its file in the paper's
	// layout (shared artifacts ignore pe).
	binFile, csvFile func(pe int) string

	// APBF header: the kind byte, the columns the writer emits (before
	// one column per configured PAPI event when counters is set), the
	// fewest columns a reader accepts, and whether blocks carry a string
	// column.
	binKind       byte
	cols, minCols int
	counters      bool
	hasStr        bool

	// binRecBytes is a low bytes-per-record figure, before the counter
	// columns, for sizing a collecting reader's slices from the file size
	// (shardRows); 0 means the shard is small enough not to bother. For
	// the send kinds it is the shortest row there is - a byte per column,
	// and 1 more per counter - so a send shard is never under-estimated.
	binRecBytes int

	// appendCSV appends r's line(s) in the paper's layout; events are the
	// PAPI event names in config order.
	appendCSV func(buf []byte, r T, events []string) []byte
	// toRow fills one APBF row (len(row) is the file's column count) and
	// returns the string column's value; fromRow decodes row i of the
	// reader's current block. The send kinds have neither: their APBF
	// blocks go column by column to and from the packed Set.
	toRow   func(r T, row []int64) string
	fromRow func(d *binReader, i int) T
	// check rejects a decoded record of a run-wide kind the rest of the
	// program could not index with: one that names a PE outside the world
	// the meta file declares. The analysis layer indexes matrices and
	// per-PE slices with these values directly, so admitting them would
	// turn a corrupt record into an index-out-of-range panic (or a
	// silently dropped record) during visualization. The send kinds have
	// none: their rule is admitLogical / admitPAPI, which the column path
	// and ImportPaper apply to a row's fields.
	check func(r T, m *meta) error
}

// shared names an artifact the whole run writes once.
func shared(name string) func(int) string { return func(int) string { return name } }

var logicalKind = kind[LogicalRecord]{
	binFile: logicalBinFile, csvFile: logicalFile,
	binKind: binKindLogical, cols: 5, minCols: 5,
	binRecBytes: 5,
	appendCSV:   appendLogical,
}

var papiKind = kind[PAPIRecord]{
	binFile: papiBinFile, csvFile: papiFile,
	binKind: binKindPAPI, cols: 7, minCols: 7, counters: true,
	binRecBytes: 7,
	appendCSV:   appendPAPI,
}

var overallKind = kind[OverallRecord]{
	binFile: shared(overallBinFile), csvFile: shared(overallFile),
	binKind: binKindOverall, cols: 4, minCols: 4,
	appendCSV: appendOverall,
	toRow:     overallToRow, fromRow: overallFromRow,
	check: func(r OverallRecord, m *meta) error { return checkPE("overall", "", r.PE, m.npes) },
}

var physicalKind = kind[PhysicalRecord]{
	binFile: shared(physicalBinFile), csvFile: shared(physicalFile),
	binKind: binKindPhysical, cols: binPhysicalCols, minCols: binPhysicalMinCols,
	binRecBytes: 8,
	appendCSV:   appendPhysical,
	toRow:       physicalToRow, fromRow: physicalFromRow,
	check: func(r PhysicalRecord, m *meta) error { return checkPhysical(r, m.npes) },
}

// checkPhysical is named so that the index paths can call it statically.
func checkPhysical(r PhysicalRecord, npes int) error {
	if r.Kind < conveyor.LocalSend || r.Kind > conveyor.NonblockProgress { // only APBF can carry one
		return fmt.Errorf("trace: physical record with unknown send type %d", r.Kind)
	}
	return checkEndpoints("physical", r.SrcPE, r.DstPE, npes)
}

var segmentsKind = kind[SegmentRecord]{
	binFile: shared(segmentsBinFile), csvFile: shared(segmentsFile),
	binKind: binKindSegments, cols: 3, minCols: 3, counters: true, hasStr: true,
	appendCSV: appendSegment,
	toRow:     segmentToRow, fromRow: segmentFromRow,
	check: func(r SegmentRecord, m *meta) error { return checkPE("segments", "", r.PE, m.npes) },
}

// checkPE is the PE-range rule, for every kind: role says which of the
// record's PEs this is ("" when it has only one). The error is built out
// of line so that the rule itself inlines into the per-record checks.
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
	if src != pe || !m.onNode(srcNode, src) || !m.onNode(dstNode, dst) {
		return sendError(kind, m, pe, srcNode, src, dstNode, dst)
	}
	return nil
}

// onNode reports whether node is pe / m.perNode for a pe in [0, m.npes),
// without a division (the dearest step of a send row's check).
func (m *meta) onNode(node, pe int) bool {
	first := node * m.perNode
	return uint(node) < uint(m.npes) && first <= pe && pe-first < m.perNode
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

// admitLogical is the admission rule on a logical row's fields, for a
// block's columns (logicalSends) and a line ImportPaper parsed alike.
func admitLogical(m *meta, pe, srcNode, src, dstNode, dst, size int) error {
	if err := checkSend("logical", m, pe, srcNode, src, dstNode, dst); err != nil {
		return err
	}
	return checkWidth("logical", "msgSize", size)
}

// admitPAPI is admitLogical for a PAPI row.
func admitPAPI(m *meta, pe, srcNode, src, dstNode, dst, pkt, mailbox, sends int) error {
	if err := checkSend("PAPI", m, pe, srcNode, src, dstNode, dst); err != nil {
		return err
	} else if err := checkWidth("PAPI", "pktSize", pkt); err != nil {
		return err
	} else if err := checkWidth("PAPI", "MAILBOXID", mailbox); err != nil {
		return err
	}
	return checkWidth("PAPI", "NUM_SENDS", sends)
}

// checkWidth holds a send row's other fields to the packed record's 32
// bits.
func checkWidth(kind, field string, v int) error {
	if int(int32(v)) != v {
		return fmt.Errorf("trace: %s record's %s %d does not fit 32 bits", kind, field, v)
	}
	return nil
}
