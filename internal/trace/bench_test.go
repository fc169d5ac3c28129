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
		recs := make([]LogicalRecord, recsPerPE)
		for i := range recs {
			dst := next(npes)
			recs[i] = LogicalRecord{
				SrcNode: pe / perNode, SrcPE: pe,
				DstNode: dst / perNode, DstPE: dst,
				MsgSize: 8 + next(56),
			}
		}
		s.Logical[pe] = recs
		s.LogicalSendCount[pe] = int64(recsPerPE)

		precs := make([]PAPIRecord, recsPerPE/64)
		for i := range precs {
			dst := next(npes)
			precs[i] = PAPIRecord{
				SrcNode: pe / perNode, SrcPE: pe,
				DstNode: dst / perNode, DstPE: dst,
				PktSize: 16, MailboxID: 0, NumSends: 64,
				Counters: []int64{int64(100000 + next(9999)), int64(50000 + next(999))},
			}
		}
		s.PAPI[pe] = precs

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

// BenchmarkWriteFiles serializes the 64-PE set in each on-disk format.
func BenchmarkWriteFiles(b *testing.B) {
	for _, f := range []Format{FormatCSV, FormatBinary} {
		b.Run("format="+f.String(), func(b *testing.B) {
			set := benchSet(benchPEs, benchRecsPerPE, f)
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := set.WriteFiles(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadSet parses the 64-PE trace directory back into a fully
// materialized Set with the default worker pool (GOMAXPROCS).
func BenchmarkReadSet(b *testing.B) {
	for _, f := range []Format{FormatCSV, FormatBinary} {
		b.Run("format="+f.String(), func(b *testing.B) {
			dir := b.TempDir()
			if err := benchSet(benchPEs, benchRecsPerPE, f).WriteFiles(dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var records int
			for i := 0; i < b.N; i++ {
				set, err := ReadSet(dir)
				if err != nil {
					b.Fatal(err)
				}
				records = 0
				for _, recs := range set.Logical {
					records += len(recs)
				}
				if records != benchPEs*benchRecsPerPE {
					b.Fatalf("parsed %d logical records, want %d", records, benchPEs*benchRecsPerPE)
				}
			}
			b.ReportMetric(float64(records), "records")
		})
	}
}

// BenchmarkReadSummary folds the same directory into the O(PEs^2)
// Summary without materializing record slices.
func BenchmarkReadSummary(b *testing.B) {
	for _, f := range []Format{FormatCSV, FormatBinary} {
		b.Run("format="+f.String(), func(b *testing.B) {
			dir := b.TempDir()
			if err := benchSet(benchPEs, benchRecsPerPE, f).WriteFiles(dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum, _, err := ReadSummary(dir, ReadOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if got := sum.LogicalMatrix().Total(); got != benchPEs*benchRecsPerPE {
					b.Fatalf("summary folded %d sends, want %d", got, benchPEs*benchRecsPerPE)
				}
			}
		})
	}
}

// BenchmarkParseLogicalLine guards the byte-level line parser's
// zero-allocation guarantee (the CSV read hot path).
func BenchmarkParseLogicalLine(b *testing.B) {
	line := []byte("1,17,2,35,4096")
	out := make([]int64, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vals, err := parseIntsComma(line, 5, out[:0])
		if err != nil || vals[4] != 4096 {
			b.Fatalf("parse failed: %v %v", vals, err)
		}
	}
}

// BenchmarkAppendLogicalLine guards the byte-level line appender's
// zero-allocation guarantee (the CSV write hot path).
func BenchmarkAppendLogicalLine(b *testing.B) {
	r := LogicalRecord{SrcNode: 1, SrcPE: 17, DstNode: 2, DstPE: 35, MsgSize: 4096}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendLogical(buf[:0], r, nil)
		if len(buf) == 0 {
			b.Fatal("empty line")
		}
	}
}

// benchIndexedDir writes an ordered-cycle binary trace and its time
// index, the windowed-query benchmarks' shared fixture.
func benchIndexedDir(b *testing.B, npes, recsPerPE int) string {
	b.Helper()
	dir := b.TempDir()
	if err := orderedCycleSet(b, npes, recsPerPE).WriteFiles(dir); err != nil {
		b.Fatal(err)
	}
	if built, err := BuildTimeIndex(dir); err != nil || !built {
		b.Fatalf("BuildTimeIndex: built=%v err=%v", built, err)
	}
	return dir
}

// BenchmarkWindowQueryEvents answers a narrow raw-event window through
// the time index: cost must track the window (a few blocks), not the
// 256-block trace.
func BenchmarkWindowQueryEvents(b *testing.B) {
	const npes, recsPerPE = 64, 4096
	dir := benchIndexedDir(b, npes, recsPerPE)
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		b.Fatal(err)
	}
	span := ix.TMax - ix.TMin + 1
	q := Window{T0: ix.TMin + span/2, T1: ix.TMin + span/2 + span/64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.Query(dir, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Events) == 0 || res.BlocksRead >= res.TotalBlocks {
			b.Fatalf("window read %d/%d blocks with %d events", res.BlocksRead, res.TotalBlocks, len(res.Events))
		}
	}
}

// BenchmarkWindowQueryPyramid answers a zoomed-out query from the
// index's pyramid alone - no data blocks at all.
func BenchmarkWindowQueryPyramid(b *testing.B) {
	const npes, recsPerPE = 64, 4096
	dir := benchIndexedDir(b, npes, recsPerPE)
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		b.Fatal(err)
	}
	q := Window{T0: ix.TMin, T1: ix.TMax + 1, LOD: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.Query(dir, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Buckets) == 0 || res.BlocksRead != 0 {
			b.Fatalf("pyramid query returned %d buckets reading %d blocks", len(res.Buckets), res.BlocksRead)
		}
	}
}

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

// BenchmarkCollectFullTrace is the record path (block arenas).
func BenchmarkCollectFullTrace(b *testing.B) { benchCollect(b, fullTrace()) }

// BenchmarkCollectAggregate is the benchmark's aggregation config, which
// retains no records.
func BenchmarkCollectAggregate(b *testing.B) {
	benchCollect(b, Config{
		Logical: true, Overall: true, Aggregate: true,
		PAPIEvents: []papi.Event{papi.TOT_INS}, PAPIRecordEvery: 256,
	})
}
