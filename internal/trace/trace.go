// Package trace implements ActorProf's trace collection: the logical
// (pre-aggregation) message trace, the PAPI region trace, the overall
// T_MAIN/T_COMM/T_PROC breakdown, and the physical (post-aggregation)
// Conveyors trace, together with the exact on-disk formats the paper
// specifies and readers/aggregators for the visualization layer.
//
// The paper enables each feature with a compile-time macro; Config
// mirrors those as booleans:
//
//	-DENABLE_TRACE            -> Config.Logical  (+ Config.PAPIEvents for HWPC)
//	-DENABLE_TCOMM_PROFILING  -> Config.Overall
//	-DENABLE_TRACE_PHYSICAL   -> Config.Physical
//
// File formats (paper Section III):
//
//	PEi_send.csv : srcNode,srcPE,dstNode,dstPE,msgSize            (per logical send)
//	PEi_PAPI.csv : srcNode,srcPE,dstNode,dstPE,pktSize,MAILBOXID,NUM_SENDS,<counters...>
//	overall.txt  : Absolute [PEi] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC)
//	               Relative [PEi] TCOMM_PROFILING (m, c, p)
//	physical.txt : sendType,bufBytes,srcPE,dstPE
package trace

import (
	"fmt"
	"math"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// Config selects which traces a run collects.
type Config struct {
	// Logical enables the pre-aggregation message trace
	// (-DENABLE_TRACE): one record per application-level send.
	Logical bool
	// Physical enables the post-aggregation Conveyors trace
	// (-DENABLE_TRACE_PHYSICAL): one record per buffer transfer event.
	Physical bool
	// Overall enables the T_MAIN/T_COMM/T_PROC cycle breakdown
	// (-DENABLE_TCOMM_PROFILING).
	Overall bool
	// PAPIEvents, when non-empty, enables HWPC region profiling with
	// these events (at most papi.MaxConcurrentEvents). Requires Logical
	// semantics: records are emitted alongside sends.
	PAPIEvents []papi.Event
	// PAPIRecordEvery batches PAPI records: a record is flushed every N
	// sends to the same (destination, mailbox). 1 (the default) emits
	// one record per send, as the paper's per-send-operation format
	// describes; larger values bound trace size for huge runs (the
	// paper's Section VI trace-size concern).
	PAPIRecordEvery int
	// LogicalSample keeps only every Nth logical record (1 = keep all).
	// This is the trace-size-management extension the paper lists as
	// future work; totals-based analyses scale the counts back up.
	LogicalSample int
	// Format selects the on-disk representation WriteFiles and the
	// streaming collector produce: the paper's CSV/text formats (the
	// default), the compact binary columnar format, or both side by
	// side. Readers auto-detect the format per file, so this only
	// affects writers.
	Format Format
	// Aggregate folds records into per-(src,dst) matrices at collection
	// time instead of materializing them: the collector keeps an
	// O(PEs^2) partial Summary rather than O(records) slices, and the
	// set's Summary() reports it. Heatmap/violin/overall analyses work
	// unchanged; WriteFiles and per-record exports need raw records and
	// refuse aggregated sets (combine with a StreamDir to keep the
	// records on disk).
	Aggregate bool
}

// Format selects the on-disk trace representation.
type Format uint8

const (
	// FormatCSV writes the paper's text formats (PEi_send.csv,
	// PEi_PAPI.csv, overall.txt, physical.txt, segments.txt).
	FormatCSV Format = iota
	// FormatBinary writes the compact binary columnar *.bin siblings
	// (PEi_send.bin, ..., physical.bin) instead.
	FormatBinary
	// FormatBoth writes both representations.
	FormatBoth
)

func (f Format) binary() bool { return f == FormatBinary || f == FormatBoth }

// encodings lists what the format writes, as the sinks' binary flag.
func (f Format) encodings() []bool {
	return [...][]bool{FormatCSV: {false}, FormatBinary: {true}, FormatBoth: {false, true}}[f]
}

// String names the format as the -format CLI flags spell it.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatBinary:
		return "binary"
	case FormatBoth:
		return "both"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// ParseFormat parses a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "csv", "":
		return FormatCSV, nil
	case "binary", "bin":
		return FormatBinary, nil
	case "both":
		return FormatBoth, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want csv, binary, or both)", s)
}

func (c Config) withDefaults() Config {
	if c.PAPIRecordEvery <= 0 {
		c.PAPIRecordEvery = 1
	}
	if c.LogicalSample <= 0 {
		c.LogicalSample = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.PAPIEvents) > papi.MaxConcurrentEvents {
		return fmt.Errorf("trace: %d PAPI events configured; PAPI allows at most %d",
			len(c.PAPIEvents), papi.MaxConcurrentEvents)
	}
	if c.PAPIRecordEvery > math.MaxInt32 {
		return fmt.Errorf("trace: PAPIRecordEvery %d exceeds a record's 32-bit send count", c.PAPIRecordEvery)
	}
	if c.Format > FormatBoth {
		return fmt.Errorf("trace: unknown trace format %d", c.Format)
	}
	return nil
}

// Any reports whether any trace feature is enabled.
func (c Config) Any() bool {
	return c.Logical || c.Physical || c.Overall || len(c.PAPIEvents) > 0
}

// LogicalRecord is one pre-aggregation send: the "user application-fed"
// source and destination, with the node mapping (paper Section III-A).
type LogicalRecord struct {
	SrcNode, SrcPE, DstNode, DstPE int
	MsgSize                        int // payload bytes
}

// PAPIRecord is one HWPC record covering NumSends send operations to one
// destination/mailbox, with the counter deltas attributed to user-region
// code since the previous record on this PE (paper Section III-A).
type PAPIRecord struct {
	SrcNode, SrcPE, DstNode, DstPE int
	PktSize                        int
	MailboxID                      int
	NumSends                       int
	Counters                       []int64 // parallel to Config.PAPIEvents
}

// PhysicalRecord is one post-aggregation Conveyors transfer event
// (paper Section III-C).
type PhysicalRecord struct {
	Kind     conveyor.SendKind
	BufBytes int
	SrcPE    int
	DstPE    int
	// Cycles is the initiating PE's clock at the event. It is NOT
	// serialized into physical.txt, whose four-field format matches the
	// paper - and whose timestamps the paper argues are unreliable
	// under Conveyors' lazy-send policy - but the binary physical.bin
	// carries it as a fifth column, so the Trace Event export and the
	// windowed time-index queries survive a round trip through disk.
	Cycles int64
}

// SegmentRecord aggregates one named user segment on one PE: the paper's
// segment-level HWPC profiling ("Segments refer to the culmination of
// functions that do not involve any asynchronous communication"; users
// place HClib-Actor tracing functions around them). Counters follow
// Config.PAPIEvents; Cycles is the summed clock time inside the segment.
type SegmentRecord struct {
	PE       int
	Name     string
	Count    int64 // number of executions
	Cycles   int64
	Counters []int64
}

// OverallRecord is one PE's cycle breakdown (paper Section III-B).
// TComm is derived: TTotal - TMain - TProc.
type OverallRecord struct {
	PE                  int
	TMain, TProc, TComm int64
	TTotal              int64
}

// RelMain returns T_MAIN/T_TOTAL (0 when TTotal is 0).
func (r OverallRecord) RelMain() float64 { return rel(r.TMain, r.TTotal) }

// RelProc returns T_PROC/T_TOTAL.
func (r OverallRecord) RelProc() float64 { return rel(r.TProc, r.TTotal) }

// RelComm returns T_COMM/T_TOTAL.
func (r OverallRecord) RelComm() float64 { return rel(r.TComm, r.TTotal) }

func rel(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// Set is the assembled output of one traced run: everything ActorProf's
// visualizations consume.
type Set struct {
	NumPEs     int
	PEsPerNode int
	Config     Config

	// Logical[pe] holds PE pe's logical records (PEi_send.csv).
	Logical [][]LogicalRecord
	// LogicalSendCount[pe] is the exact number of logical sends by pe,
	// independent of sampling.
	LogicalSendCount []int64
	// PAPI[pe] holds PE pe's HWPC records (PEi_PAPI.csv).
	PAPI [][]PAPIRecord
	// Physical[pe] holds the physical events *initiated by* PE pe; the
	// on-disk physical.txt concatenates them in PE order.
	Physical [][]PhysicalRecord
	// Overall[pe] is PE pe's breakdown (overall.txt).
	Overall []OverallRecord
	// Segments[pe] holds PE pe's named user segments (segments.txt),
	// sorted by name.
	Segments [][]SegmentRecord

	// memo holds the set's Summary, folded once and shared by copies
	// of the Set (summary.go).
	memo *summaryMemo
}

// NewSet allocates an empty set for npes PEs.
func NewSet(cfg Config, npes, perNode int) *Set {
	cfg = cfg.withDefaults()
	return &Set{
		NumPEs:           npes,
		PEsPerNode:       perNode,
		Config:           cfg,
		Logical:          make([][]LogicalRecord, npes),
		LogicalSendCount: make([]int64, npes),
		PAPI:             make([][]PAPIRecord, npes),
		Physical:         make([][]PhysicalRecord, npes),
		Overall:          make([]OverallRecord, 0, npes),
		Segments:         make([][]SegmentRecord, npes),
		memo:             new(summaryMemo),
	}
}
