package trace

import (
	"fmt"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// benchSet synthesizes a 64-PE trace with the record volume of the
// scale-12 case study (the benchmark's default input): a few hundred
// thousand logical records plus proportionate PAPI, physical, overall,
// and segment data. Synthetic (LCG-driven) rather than run-derived so
// the I/O benchmarks measure parsing and serialization, not the
// simulator, and internal/trace needs no import of internal/core.
func benchSet(npes, recsPerPE int, format Format) *Set {
	cfg := Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents:      []papi.Event{papi.TOT_INS, papi.LST_INS},
		PAPIRecordEvery: 64,
		Format:          format,
	}
	const perNode = 16
	s := NewSet(cfg, npes, perNode)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for pe := 0; pe < npes; pe++ {
		recs := make([]LogicalSend, recsPerPE)
		for i := range recs {
			recs[i] = LogicalSend{DstPE: int32(next(npes)), MsgSize: int32(8 + next(56))}
		}
		s.Logical[pe] = recs
		s.LogicalSendCount[pe] = int64(recsPerPE)

		precs, counters := make([]PAPISend, recsPerPE/64), make([]int64, 0, 2*recsPerPE/64)
		for i := range precs {
			precs[i] = PAPISend{DstPE: int32(next(npes)), PktSize: 16, MailboxID: 0, NumSends: 64}
			counters = append(counters, int64(100000+next(9999)), int64(50000+next(999)))
		}
		s.PAPI[pe], s.PAPICounters[pe] = precs, counters

		phys := make([]PhysicalRecord, recsPerPE/32)
		for i := range phys {
			dst := next(npes)
			kind := conveyor.LocalSend
			if dst/perNode != pe/perNode {
				kind = conveyor.NonblockSend
			}
			phys[i] = PhysicalRecord{Kind: kind, BufBytes: 4096, SrcPE: pe, DstPE: dst}
		}
		s.Physical[pe] = phys

		tp, tc := int64(10000+next(5000)), int64(20000+next(5000))
		s.Overall = append(s.Overall, OverallRecord{
			PE: pe, TMain: 500, TProc: tp, TComm: tc, TTotal: 500 + tp + tc,
		})
		s.Segments[pe] = []SegmentRecord{{
			PE: pe, Name: "relax", Count: int64(recsPerPE), Cycles: tp,
			Counters: []int64{int64(next(1 << 20)), int64(next(1 << 16))},
		}}
	}
	return s
}

const (
	benchPEs       = 64
	benchRecsPerPE = 4096
)

// loop is how the benchmarks time op: b.N calls after its setup, with
// allocations reported.
func loop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

var benchFormats = []Format{FormatCSV, FormatBinary}

// writeFilesOp serializes the 64-PE set in format f into one directory.
func writeFilesOp(tb testing.TB, f Format) func() {
	set := benchSet(benchPEs, benchRecsPerPE, f)
	dir := tb.TempDir()
	return func() {
		if err := set.WriteFiles(dir); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchDir writes the 64-PE set in format f, the readers' input.
func benchDir(tb testing.TB, f Format) string {
	dir := tb.TempDir()
	if err := benchSet(benchPEs, benchRecsPerPE, f).WriteFiles(dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// readSetOp parses the 64-PE trace directory back into a fully
// materialized Set with the default worker pool (GOMAXPROCS).
func readSetOp(tb testing.TB, f Format) func() {
	dir := benchDir(tb, f)
	return func() {
		set, err := ReadSet(dir)
		if err != nil {
			tb.Fatal(err)
		}
		records := 0
		for _, recs := range set.Logical {
			records += len(recs)
		}
		if records != benchPEs*benchRecsPerPE {
			tb.Fatalf("parsed %d logical records, want %d", records, benchPEs*benchRecsPerPE)
		}
	}
}

// readSummaryOp folds the same directory into the O(PEs^2) Summary
// without materializing record slices.
func readSummaryOp(tb testing.TB, f Format) func() {
	dir := benchDir(tb, f)
	return func() {
		sum, _, err := ReadSummary(dir, ReadOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		if got := sum.LogicalMatrix().Total(); got != benchPEs*benchRecsPerPE {
			tb.Fatalf("summary folded %d sends, want %d", got, benchPEs*benchRecsPerPE)
		}
	}
}

// appendLogicalLineOp appends one line of the paper's layout, the write
// hot path of its text files, into a reused buffer.
func appendLogicalLineOp(tb testing.TB) func() {
	r := LogicalRecord{SrcNode: 1, SrcPE: 17, DstNode: 2, DstPE: 35, MsgSize: 4096}
	buf := make([]byte, 0, 64)
	return func() {
		buf = appendLogical(buf[:0], r, nil)
		if len(buf) == 0 {
			tb.Fatal("empty line")
		}
	}
}

func BenchmarkWriteFiles(b *testing.B) {
	for _, f := range benchFormats {
		b.Run("format="+f.String(), func(b *testing.B) { loop(b, writeFilesOp(b, f)) })
	}
}

func BenchmarkReadSet(b *testing.B) {
	for _, f := range benchFormats {
		b.Run("format="+f.String(), func(b *testing.B) { loop(b, readSetOp(b, f)) })
	}
}

func BenchmarkReadSummary(b *testing.B) {
	for _, f := range benchFormats {
		b.Run("format="+f.String(), func(b *testing.B) { loop(b, readSummaryOp(b, f)) })
	}
}

func BenchmarkAppendLogicalLine(b *testing.B) { loop(b, appendLogicalLineOp(b)) }

// benchIndexedDir writes an ordered-cycle binary trace and its time
// index, the windowed-query benchmarks' shared fixture.
func benchIndexedDir(tb testing.TB, npes, recsPerPE int) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := orderedCycleSet(tb, npes, recsPerPE).WriteFiles(dir); err != nil {
		tb.Fatal(err)
	}
	if built, err := BuildTimeIndex(dir); err != nil || !built {
		tb.Fatalf("BuildTimeIndex: built=%v err=%v", built, err)
	}
	return dir
}

// benchWindows are the two windowed queries over benchIndexedDir's
// 64-PE trace: a narrow raw-event window, whose cost must track the
// window (a few blocks), not the 256-block trace, and a zoomed-out one
// answered from the index's pyramid alone, reading no data block.
var benchWindows = []struct {
	name string
	at   func(ix *TimeIndex) Window
}{
	{"lod=0", func(ix *TimeIndex) Window {
		span := ix.TMax - ix.TMin + 1
		return Window{T0: ix.TMin + span/2, T1: ix.TMin + span/2 + span/64}
	}},
	{"lod=2", func(ix *TimeIndex) Window { return Window{T0: ix.TMin, T1: ix.TMax + 1, LOD: 2} }},
}

// windowQueryOp answers benchWindows[w] through the time index.
func windowQueryOp(tb testing.TB, w int) func() {
	dir := benchIndexedDir(tb, 64, 4096)
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		tb.Fatal(err)
	}
	q := benchWindows[w].at(ix)
	return func() {
		res, err := ix.Query(dir, q)
		if err != nil {
			tb.Fatal(err)
		}
		if q.LOD == 0 && (len(res.Events) == 0 || res.BlocksRead >= res.TotalBlocks) {
			tb.Fatalf("window read %d/%d blocks with %d events", res.BlocksRead, res.TotalBlocks, len(res.Events))
		}
		if q.LOD > 0 && (len(res.Buckets) == 0 || res.BlocksRead != 0) {
			tb.Fatalf("pyramid query returned %d buckets reading %d blocks", len(res.Buckets), res.BlocksRead)
		}
	}
}

func BenchmarkWindowQueryEvents(b *testing.B) { loop(b, windowQueryOp(b, 0)) }

func BenchmarkWindowQueryPyramid(b *testing.B) { loop(b, windowQueryOp(b, 1)) }

// BenchmarkWindowQueryFullScan is the reference path the indexed
// queries are measured against: the same narrow window answered by
// walking the whole materialized Set.
func BenchmarkWindowQueryFullScan(b *testing.B) {
	const npes, recsPerPE = 64, 4096
	set := orderedCycleSet(b, npes, recsPerPE)
	span := int64(npes * recsPerPE)
	q := Window{T0: 1 + span/2, T1: 1 + span/2 + span/64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := QueryWindowSet(set, q)
		if len(res.Events) == 0 || !res.FullScan {
			b.Fatalf("full scan returned %d events (full_scan=%v)", len(res.Events), res.FullScan)
		}
	}
}

func init() {
	// Catch accidental drift between the bench fixture and the format
	// constants at test-build time rather than mid-benchmark.
	if benchPEs%16 != 0 {
		panic(fmt.Sprintf("benchPEs %d must be a multiple of the per-node width", benchPEs))
	}
}

// benchCollect measures one send through the collector - LogicalSend
// plus, every fourth send, the PhysicalSendAt of the buffer it filled -
// as ns, bytes and allocations per send. A PE's collector is closed and
// replaced every benchCollectRun sends, so record mode's hand-over is
// part of the figure and memory stays bounded whatever b.N is.
func benchCollect(b *testing.B, cfg Config) {
	const benchCollectRun = 1 << 20
	m := machine(benchPEs, 16)
	eng := papi.NewEngine()
	var pc *PECollector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchCollectRun == 0 {
			if pc != nil {
				pc.Close()
			}
			c, err := NewCollector(cfg, m)
			if err != nil {
				b.Fatal(err)
			}
			pc = c.ForPE(0, eng)
		}
		dst := i % benchPEs
		eng.Tally(&papi.Work{Ins: 7, LstIns: 2})
		pc.LogicalSend(0, dst, 16)
		if i%4 == 3 {
			pc.PhysicalSendAt(conveyor.LocalSend, 1024, 0, dst, int64(i))
		}
	}
	pc.Close()
}

// BenchmarkCollectFullTrace is the record path: sends packed into the
// block being filled, sealed as APBF blocks, decoded once at Close. The
// byte chunks sealed blocks land in amortise below one allocation per
// send (TestFullTraceSendAmortisedAlloc).
func BenchmarkCollectFullTrace(b *testing.B) { benchCollect(b, fullTrace()) }

// BenchmarkCollectAggregate is the benchmark's aggregation config, which
// retains no records.
func BenchmarkCollectAggregate(b *testing.B) {
	benchCollect(b, Config{
		Logical: true, Overall: true, Aggregate: true,
		PAPIEvents: []papi.Event{papi.TOT_INS}, PAPIRecordEvery: 256,
	})
}
