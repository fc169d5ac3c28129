package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// kindCase is one record kind's fixture for the conformance suite.
type kindCase[T any] struct {
	k    *kind[T]
	good []T
	// bad is a well-formed record naming a PE outside the 4-PE world.
	bad T
	// tearAfter marks where to cut the last text line so that it cannot
	// parse: the file is truncated just past its last occurrence.
	tearAfter string
	// csvView maps a record to what survives the text format (physical.txt
	// has no cycles column); nil means the text format is lossless.
	csvView func(T) T
}

var conformanceMeta = &meta{npes: 4, perNode: 2, sample: 1, events: []papi.Event{papi.TOT_INS, papi.LST_INS}}

// TestKindConformance holds every record kind, in both encodings and
// both read modes, to the contract scanShard and sink promise: what a
// sink wrote scans back identical; a torn tail is an error when strict
// and, when tolerant, costs exactly the records it tore (yielded +
// skipped still accounts for every record written); a record naming a
// PE outside the world is an error when strict, one skip when tolerant.
func TestKindConformance(t *testing.T) {
	runKindCase(t, "logical", kindCase[LogicalRecord]{
		k: &logicalKind, tearAfter: ",",
		good: []LogicalRecord{
			{SrcNode: 0, SrcPE: 0, DstNode: 1, DstPE: 3, MsgSize: 8},
			{SrcNode: 0, SrcPE: 1, DstNode: 0, DstPE: 0, MsgSize: 1 << 20},
			{SrcNode: 1, SrcPE: 2, DstNode: 0, DstPE: 1, MsgSize: 0},
		},
		bad: LogicalRecord{SrcPE: 1, DstNode: 2, DstPE: 4, MsgSize: 8},
	})
	runKindCase(t, "PAPI", kindCase[PAPIRecord]{
		k: &papiKind, tearAfter: ",",
		good: []PAPIRecord{
			{SrcPE: 0, DstNode: 1, DstPE: 2, PktSize: 16, MailboxID: 0, NumSends: 64, Counters: []int64{1000, 10}},
			{SrcNode: 1, SrcPE: 3, DstNode: 1, DstPE: 3, MailboxID: -1, Counters: []int64{7, 0}},
		},
		bad: PAPIRecord{SrcPE: -1, DstPE: 0, NumSends: 1, Counters: []int64{1, 1}},
	})
	runKindCase(t, "overall", kindCase[OverallRecord]{
		k: &overallKind, tearAfter: "Absolute [PE3] TCOMM_PROFILING (", // not the derived Relative line
		good: []OverallRecord{
			{PE: 0, TMain: 5, TComm: 20, TProc: 75, TTotal: 100},
			{PE: 3, TMain: 0, TComm: 0, TProc: 0, TTotal: 0},
		},
		bad: OverallRecord{PE: 4, TMain: 1, TComm: 2, TProc: 3, TTotal: 6},
	})
	runKindCase(t, "physical", kindCase[PhysicalRecord]{
		k: &physicalKind, tearAfter: ",",
		good: []PhysicalRecord{
			{Kind: conveyor.LocalSend, BufBytes: 4096, SrcPE: 0, DstPE: 1, Cycles: 10},
			{Kind: conveyor.NonblockSend, BufBytes: 64, SrcPE: 3, DstPE: 0, Cycles: 20},
			{Kind: conveyor.NonblockProgress, BufBytes: 64, SrcPE: 3, DstPE: 0, Cycles: 30},
		},
		bad:     PhysicalRecord{Kind: conveyor.LocalSend, BufBytes: 8, SrcPE: 0, DstPE: 9},
		csvView: func(r PhysicalRecord) PhysicalRecord { r.Cycles = 0; return r },
	})
	runKindCase(t, "segments", kindCase[SegmentRecord]{
		k: &segmentsKind, tearAfter: "=",
		good: []SegmentRecord{
			{PE: 0, Name: "relax", Count: 3, Cycles: 99, Counters: []int64{12, 4}},
			{PE: 2, Name: "scan", Count: 1, Cycles: 7, Counters: []int64{0, 0}},
		},
		bad: SegmentRecord{PE: -2, Name: "rogue", Count: 1, Cycles: 1, Counters: []int64{1, 1}},
	})
}

func runKindCase[T any](t *testing.T, name string, c kindCase[T]) {
	events := eventNames(conformanceMeta.events)
	for _, format := range []Format{FormatCSV, FormatBinary} {
		want := c.good
		if format == FormatCSV && c.csvView != nil {
			want = nil
			for _, r := range c.good {
				want = append(want, c.csvView(r))
			}
		}
		// write puts recs into a fresh directory and returns it with the
		// path of the one file written.
		write := func(t *testing.T, recs []T) (dir, path string) {
			dir = t.TempDir()
			if err := writeShard(c.k, dir, 0, format, events, recs); err != nil {
				t.Fatal(err)
			}
			if format == FormatBinary {
				return dir, filepath.Join(dir, c.k.binFile(0))
			}
			return dir, filepath.Join(dir, c.k.csvFile(0))
		}
		scan := func(dir string, tolerant bool) (got []T, skipped int, err error) {
			found, skipped, err := scanShard(c.k, dir, 0, conformanceMeta, tolerant, func(r T) { got = append(got, r) })
			if !found {
				t.Fatalf("shard not found in %s", dir)
			}
			return got, skipped, err
		}
		for _, tolerant := range []bool{false, true} {
			mode := map[bool]string{false: "strict", true: "tolerant"}[tolerant]
			t.Run(name+"/"+format.String()+"/"+mode, func(t *testing.T) {
				dir, _ := write(t, c.good)
				got, skipped, err := scan(dir, tolerant)
				if err != nil || skipped != 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("round trip: skipped=%d err=%v\n got %+v\nwant %+v", skipped, err, got, want)
				}

				dir, path := write(t, c.good)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				cut := len(data) - 1 // mid-block
				if format == FormatCSV {
					cut = bytes.LastIndex(data, []byte(c.tearAfter)) + len(c.tearAfter)
				}
				if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				got, skipped, err = scan(dir, tolerant)
				switch {
				case !tolerant && err == nil:
					t.Fatalf("torn tail: strict scan accepted it (%d records)", len(got))
				case tolerant && (err != nil || skipped == 0 || len(got)+skipped != len(c.good)):
					t.Fatalf("torn tail: %d yielded + %d skipped of %d written, err=%v", len(got), skipped, len(c.good), err)
				}

				dir, _ = write(t, append(append([]T(nil), c.good...), c.bad))
				got, skipped, err = scan(dir, tolerant)
				switch {
				case !tolerant && (err == nil || !strings.Contains(err.Error(), "outside [0, 4)")):
					t.Fatalf("out-of-range PE: strict scan returned %v", err)
				case tolerant && (err != nil || skipped != 1 || !reflect.DeepEqual(got, want)):
					t.Fatalf("out-of-range PE: skipped=%d err=%v got %+v", skipped, err, got)
				}
			})
		}
	}
}
