package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// fullSet fabricates a trace set exercising all five record kinds
// (logical, PAPI, physical, overall, segments) across enough PEs that
// the parallel reader actually shards. It asks for the paper's text
// layout: the tests that take it name CSV files.
func fullSet(t *testing.T, npes int) *Set {
	t.Helper()
	m := machine(npes, 2)
	c, err := NewCollector(Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
		Format:     FormatCSV,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < npes; pe++ {
		eng := papi.NewEngine()
		pc := c.ForPE(pe, eng)
		for i := 0; i < 20+pe; i++ {
			dst := (pe + 1 + i*3) % npes
			eng.Tally(&papi.Work{Ins: int64(10 + i), LstIns: int64(i)})
			pc.LogicalSend(0, dst, 8+i%64)
		}
		pc.PhysicalSend(conveyor.LocalSend, 128, pe, (pe+1)%npes)
		pc.PhysicalSend(conveyor.NonblockSend, 4096, pe, (pe+2)%npes)
		pc.PhysicalSend(conveyor.NonblockProgress, 4096, pe, (pe+2)%npes)
		tok := pc.SegmentEnter("relax", 0)
		eng.Tally(&papi.Work{Ins: int64(1000 * (pe + 1))})
		pc.SegmentExit(tok, int64(77*(pe+1)))
		pc.OverallBreakdown(int64(100+pe), int64(5000+pe), int64(90000+pe))
		pc.Close()
	}
	return c.Set()
}

// recordsEqual compares everything ReadSet materializes (the aggregate
// fields stay nil on read-back sets, so DeepEqual on the record slices
// is the right equivalence).
func recordsEqual(t *testing.T, label string, a, b *Set) {
	t.Helper()
	if a.NumPEs != b.NumPEs || a.PEsPerNode != b.PEsPerNode {
		t.Fatalf("%s: shape %d/%d vs %d/%d", label, a.NumPEs, a.PEsPerNode, b.NumPEs, b.PEsPerNode)
	}
	check := func(what string, x, y any) {
		t.Helper()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: %s differ:\n%+v\nvs\n%+v", label, what, x, y)
		}
	}
	check("logical records", a.Logical, b.Logical)
	check("logical send counts", a.LogicalSendCount, b.LogicalSendCount)
	check("PAPI records", a.PAPI, b.PAPI)
	check("physical records", a.Physical, b.Physical)
	check("overall records", a.Overall, b.Overall)
	check("segment records", a.Segments, b.Segments)
}

// TestParallelReadMatchesSequential pins the shard-ownership guarantee:
// readSet's result is identical for every worker count, because each
// per-PE file is one task writing its own slot and slots merge in file
// order.
func TestParallelReadMatchesSequential(t *testing.T) {
	for _, format := range []Format{FormatCSV, FormatBinary, FormatBoth} {
		t.Run("format="+format.String(), func(t *testing.T) {
			set := fullSet(t, 8)
			set.Config.Format = format
			dir := t.TempDir()
			if err := set.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			seq, skippedSeq, err := ReadSetOptions(dir, ReadOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if skippedSeq != 0 {
				t.Fatalf("sequential read skipped %d records of a clean dir", skippedSeq)
			}
			for _, workers := range []int{0, 2, 3, 7, 16} {
				par, skipped, err := ReadSetOptions(dir, ReadOptions{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if skipped != skippedSeq {
					t.Fatalf("workers=%d: skipped %d vs sequential %d", workers, skipped, skippedSeq)
				}
				recordsEqual(t, format.String(), seq, par)
			}
		})
	}
}

// TestParallelReadTolerantSkippedStable corrupts several shards and
// checks the race-safe skipped accounting: every worker count sees the
// same records and the same skip count.
func TestParallelReadTolerantSkippedStable(t *testing.T) {
	set := fullSet(t, 8)
	dir := t.TempDir()
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt two logical shards and the shared physical file.
	for _, name := range []string{logicalFile(1), logicalFile(6)} {
		p := filepath.Join(dir, name)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, append([]byte("garbage,line\n"), data...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := filepath.Join(dir, physicalFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(data, []byte("warp_send,1,2,3\n")...), 0o644); err != nil {
		t.Fatal(err)
	}

	seq, skippedSeq, err := ReadSetOptions(dir, ReadOptions{Tolerant: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if skippedSeq != 3 {
		t.Fatalf("sequential tolerant read skipped %d, want 3", skippedSeq)
	}
	for _, workers := range []int{0, 2, 5} {
		par, skipped, err := ReadSetOptions(dir, ReadOptions{Tolerant: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if skipped != skippedSeq {
			t.Fatalf("workers=%d: skipped %d vs sequential %d", workers, skipped, skippedSeq)
		}
		recordsEqual(t, "tolerant", seq, par)
	}
	// Strict mode must fail on the same corruption, with any worker count.
	for _, workers := range []int{1, 4} {
		if _, _, err := ReadSetOptions(dir, ReadOptions{Workers: workers}); err == nil {
			t.Fatalf("workers=%d: strict read accepted corrupted shards", workers)
		}
	}
}

// TestFormatRoundTripByteIdentical is the codec equivalence proof:
// CSV -> binary -> CSV must reproduce every text file byte for byte,
// for all five record kinds.
func TestFormatRoundTripByteIdentical(t *testing.T) {
	set := fullSet(t, 6)
	csvDir := t.TempDir()
	if err := set.WriteFiles(csvDir); err != nil {
		t.Fatal(err)
	}

	fromCSV, err := ReadSet(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	binDir := t.TempDir()
	fromCSV.Config.Format = FormatBinary
	if err := fromCSV.WriteFiles(binDir); err != nil {
		t.Fatal(err)
	}
	// The binary directory must hold only *.bin payloads (plus meta).
	entries, err := os.ReadDir(binDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == MetaFile {
			continue
		}
		if !strings.HasSuffix(e.Name(), ".bin") {
			t.Fatalf("binary-format write produced non-binary file %s", e.Name())
		}
	}

	fromBin, err := ReadSet(binDir)
	if err != nil {
		t.Fatal(err)
	}
	csvDir2 := t.TempDir()
	fromBin.Config.Format = FormatCSV
	if err := fromBin.WriteFiles(csvDir2); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		want, err := os.ReadFile(filepath.Join(csvDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(csvDir2, e.Name()))
		if err != nil {
			t.Fatalf("round trip lost %s: %v", e.Name(), err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs after CSV->binary->CSV round trip:\nwant:\n%s\ngot:\n%s",
				e.Name(), want, got)
		}
	}
}

// TestBinaryDetectedByContentNotName: format auto-detection sniffs the
// magic, so binary payloads under CSV names still parse.
func TestBinaryDetectedByContentNotName(t *testing.T) {
	set := fullSet(t, 4)
	binDir := t.TempDir()
	set.Config.Format = FormatBinary
	if err := set.WriteFiles(binDir); err != nil {
		t.Fatal(err)
	}
	mixDir := t.TempDir()
	renames := map[string]string{
		"PE0_send.bin": "PE0_send.csv", "PE1_send.bin": "PE1_send.csv",
		"PE2_send.bin": "PE2_send.csv", "PE3_send.bin": "PE3_send.csv",
		"PE0_PAPI.bin": "PE0_PAPI.csv", "PE1_PAPI.bin": "PE1_PAPI.csv",
		"PE2_PAPI.bin": "PE2_PAPI.csv", "PE3_PAPI.bin": "PE3_PAPI.csv",
		"overall.bin": overallFile, "physical.bin": physicalFile,
		"segments.bin": segmentsFile, MetaFile: MetaFile,
	}
	for from, to := range renames {
		data, err := os.ReadFile(filepath.Join(binDir, from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mixDir, to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := ReadSet(binDir)
	if err != nil {
		t.Fatal(err)
	}
	sniffed, err := ReadSet(mixDir)
	if err != nil {
		t.Fatalf("binary content under CSV names not auto-detected: %v", err)
	}
	recordsEqual(t, "sniffed", direct, sniffed)
}

// rewriteSet is a 2-PE trace of every kind whose PE 0 sends n times:
// what a directory holds after WriteFiles in format is told by n alone.
func rewriteSet(format Format, n int) *Set {
	s := NewSet(Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS}, Format: format,
	}, 2, 2)
	for i := 0; i < n; i++ {
		s.Logical[0] = append(s.Logical[0], LogicalSend{DstPE: 1, MsgSize: int32(8 + i)})
		s.PAPI[0] = append(s.PAPI[0], PAPISend{DstPE: 1, PktSize: 8, NumSends: 1})
		s.PAPICounters[0] = append(s.PAPICounters[0], int64(100+i))
		s.Physical[0] = append(s.Physical[0], PhysicalRecord{Kind: conveyor.LocalSend, BufBytes: 64 * (i + 1), SrcPE: 0, DstPE: 1})
	}
	s.LogicalSendCount[0] = int64(n)
	s.Overall = []OverallRecord{{PE: 0, TMain: int64(n), TComm: 1, TProc: 2, TTotal: int64(n) + 3}}
	s.Segments[0] = []SegmentRecord{{PE: 0, Name: "relax", Count: int64(n), Cycles: 9, Counters: []int64{int64(n)}}}
	return s
}

// TestRewriteReplacesSiblingEncoding: a directory written in one
// encoding and then in the other holds the files, and reads back the
// records, of the second write alone - in both orders. (Readers prefer a
// shard's .bin to its .csv, so a leftover binary shard would shadow a CSV
// rewrite.)
func TestRewriteReplacesSiblingEncoding(t *testing.T) {
	names := func(dir string) (out []string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	for _, order := range [][2]Format{{FormatBinary, FormatCSV}, {FormatCSV, FormatBinary}} {
		t.Run(order[0].String()+"-then-"+order[1].String(), func(t *testing.T) {
			dir, fresh := t.TempDir(), t.TempDir()
			if err := rewriteSet(order[0], 1).WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{dir, fresh} {
				if err := rewriteSet(order[1], 3).WriteFiles(d); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := names(dir), names(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("the rewritten directory holds %v, a fresh write %v", got, want)
			}
			got, err := ReadSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReadSet(fresh)
			if err != nil {
				t.Fatal(err)
			}
			recordsEqual(t, "rewritten", want, got)
		})
	}
}

// TestRewriteDropsTimeIndex: physical.idx describes the physical.bin it
// was built over. A rewrite of the same size passes the index's own
// staleness check, so WriteFiles removes the index with the old trace.
func TestRewriteDropsTimeIndex(t *testing.T) {
	withCycles := func(base int64) *Set {
		s := NewSet(Config{Physical: true, Format: FormatBinary}, 2, 2)
		for i := int64(0); i < 3; i++ {
			s.Physical[0] = append(s.Physical[0], PhysicalRecord{Kind: conveyor.LocalSend, BufBytes: 64, SrcPE: 0, DstPE: 1, Cycles: base + i})
		}
		return s
	}
	dir := t.TempDir()
	if err := withCycles(10).WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if built, err := BuildTimeIndex(dir); err != nil || !built {
		t.Fatalf("BuildTimeIndex: built=%v err=%v", built, err)
	}
	before, err := os.Stat(filepath.Join(dir, physicalBinFile))
	if err != nil {
		t.Fatal(err)
	}
	s := withCycles(20)
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(filepath.Join(dir, physicalBinFile)); err != nil || after.Size() != before.Size() {
		t.Fatalf("fixture: the rewrite is %v bytes (err %v), want the %d of the first write", after.Size(), err, before.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, timeIndexFile)); !os.IsNotExist(err) {
		t.Errorf("a rewritten physical trace kept the index built over the old one (stat: %v)", err)
	}
	q := Window{T0: 0, T1: 100}
	got, err := QueryWindow(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := QueryWindowSet(s, q); !reflect.DeepEqual(got, want) {
		t.Errorf("query after the rewrite:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSegmentsOutOfRangePE is the regression test for the seed bug
// where segment records naming a PE outside [0, NumPEs) were silently
// dropped: strict reads must now error, tolerant reads must count them
// as skipped.
func TestSegmentsOutOfRangePE(t *testing.T) {
	set := fullSet(t, 2)
	dir := t.TempDir()
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, segmentsFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte("[PE9] SEGMENT rogue count=1 cycles=5 PAPI_TOT_INS=1 PAPI_LST_INS=1\n")...)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadSet(dir); err == nil {
		t.Fatal("strict read accepted a segment record with PE 9 in a 2-PE trace")
	} else if !strings.Contains(err.Error(), "outside") {
		t.Fatalf("error should name the PE range violation, got: %v", err)
	}

	back, skipped, err := ReadSetLive(dir)
	if err != nil {
		t.Fatalf("tolerant read must skip, not fail: %v", err)
	}
	if skipped != 1 {
		t.Fatalf("tolerant read skipped %d records, want 1", skipped)
	}
	for pe := 0; pe < 2; pe++ {
		if len(back.Segments[pe]) != len(set.Segments[pe]) {
			t.Fatalf("PE %d: in-range segments dropped (%d vs %d)",
				pe, len(back.Segments[pe]), len(set.Segments[pe]))
		}
	}
}

// TestAggregateCollectorMatchesBuffered pins the aggregation
// equivalence: matrices from an Aggregate collector must equal the
// matrices a buffering collector derives from its materialized records.
func TestAggregateCollectorMatchesBuffered(t *testing.T) {
	m := machine(6, 3)
	feed := func(c *Collector) {
		for pe := 0; pe < 6; pe++ {
			eng := papi.NewEngine()
			pc := c.ForPE(pe, eng)
			// PE 5 sends nothing: all of its work is the residual record.
			for i := 0; i < 15 && pe != 5; i++ {
				eng.Tally(&papi.Work{Ins: int64(3*pe + i), LstIns: int64(i)})
				pc.LogicalSend(0, (pe+i)%6, 16+i)
			}
			eng.Tally(&papi.Work{Ins: int64(7 + pe), LstIns: 2}) // drain-phase work after the last send
			pc.PhysicalSend(conveyor.LocalSend, 64, pe, (pe+1)%6)
			pc.PhysicalSend(conveyor.NonblockSend, 128, pe, (pe+3)%6)
			pc.OverallBreakdown(int64(10+pe), int64(20+pe), int64(500+pe))
			pc.Close()
		}
	}
	cfg := Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
	}
	buffered, err := NewCollector(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	feed(buffered)
	want := buffered.Set()

	cfg.Aggregate = true
	agg, err := NewCollector(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	feed(agg)
	got := agg.Set()

	for pe := 0; pe < 6; pe++ {
		if len(got.Logical[pe]) != 0 || len(got.Physical[pe]) != 0 || len(got.PAPI[pe]) != 0 {
			t.Fatalf("aggregate collector materialized records on PE %d", pe)
		}
	}
	if !reflect.DeepEqual(want.LogicalMatrix(), got.LogicalMatrix()) {
		t.Fatalf("logical matrices differ:\n%+v\nvs\n%+v", want.LogicalMatrix(), got.LogicalMatrix())
	}
	if !reflect.DeepEqual(want.PhysicalMatrix(), got.PhysicalMatrix()) {
		t.Fatalf("physical matrices differ:\n%+v\nvs\n%+v", want.PhysicalMatrix(), got.PhysicalMatrix())
	}
	for i, ev := range cfg.PAPIEvents {
		w, g := want.PAPITotalsPerPE(ev), got.PAPITotalsPerPE(ev)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("PAPI totals for event %d differ:\n%v\nvs\n%v", i, w, g)
		}
	}
	if !reflect.DeepEqual(want.Overall, got.Overall) {
		t.Fatalf("overall records differ")
	}
	// WriteFiles needs raw records and must refuse the aggregate set.
	if err := got.WriteFiles(t.TempDir()); err == nil {
		t.Fatal("WriteFiles accepted an aggregate-mode set")
	}
}
