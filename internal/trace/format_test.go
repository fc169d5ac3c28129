package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// fullSet fabricates a trace set exercising all five record kinds
// (logical, PAPI, physical, overall, segments) across enough PEs that
// the parallel reader actually shards. It asks for the paper's text
// layout beside the APBF files, which the rim oracle imports.
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
		pc.PhysicalSendAt(conveyor.LocalSend, 128, pe, (pe+1)%npes, 0)
		pc.PhysicalSendAt(conveyor.NonblockSend, 4096, pe, (pe+2)%npes, 0)
		pc.PhysicalSendAt(conveyor.NonblockProgress, 4096, pe, (pe+2)%npes, 0)
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
	for _, format := range []Format{FormatCSV, FormatBinary} {
		t.Run("format="+format.String(), func(t *testing.T) {
			set := fullSet(t, 8)
			set.Config.Format = format
			dir := t.TempDir()
			if err := set.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			seq, skippedSeq, err := readSet(dir, ReadOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if skippedSeq != 0 {
				t.Fatalf("sequential read skipped %d records of a clean dir", skippedSeq)
			}
			for _, workers := range []int{0, 2, 3, 7, 16} {
				par, skipped, err := readSet(dir, ReadOptions{Workers: workers})
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
	// Corrupt two logical shards' headers (one skip each) and append a
	// one-row block with no row to the shared physical file (one more).
	for _, name := range []string{logicalBinFile(1), logicalBinFile(6)} {
		p := filepath.Join(dir, name)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := filepath.Join(dir, physicalBinFile)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(data, 0x01), 0o644); err != nil {
		t.Fatal(err)
	}

	seq, skippedSeq, err := readSet(dir, ReadOptions{Tolerant: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if skippedSeq != 3 {
		t.Fatalf("sequential tolerant read skipped %d, want 3", skippedSeq)
	}
	for _, workers := range []int{0, 2, 5} {
		par, skipped, err := readSet(dir, ReadOptions{Tolerant: true, Workers: workers})
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
		if _, _, err := readSet(dir, ReadOptions{Workers: workers}); err == nil {
			t.Fatalf("workers=%d: strict read accepted corrupted shards", workers)
		}
	}
}

// readDir maps each file of dir to its bytes.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// importPaper writes s in the paper's layout, copies that layout alone -
// the text files and the meta file, no APBF file - into a fresh directory
// and imports it, which must skip nothing. It returns the import and the
// files s was written as.
func importPaper(t *testing.T, s *Set) (*Set, map[string]string) {
	t.Helper()
	s.Config.Format = FormatCSV
	orig, paper := t.TempDir(), t.TempDir()
	if err := s.WriteFiles(orig); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, orig)
	for name, data := range files {
		if strings.HasSuffix(name, ".bin") {
			continue
		}
		if err := os.WriteFile(filepath.Join(paper, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	imported, skipped, err := ImportPaper(paper)
	if err != nil || skipped != 0 {
		t.Fatalf("ImportPaper: skipped %d, err %v", skipped, err)
	}
	return imported, files
}

// TestFormatRoundTripByteIdentical is the rim oracle: the paper's layout
// alone (the text files and the meta file of a FormatCSV directory),
// imported and written again, reproduces every file of that directory
// byte for byte, for all five record kinds - the text files, and the APBF
// files too, since fullSet's physical records carry no clock. Written as
// FormatBinary, the import is the same APBF files and nothing else.
func TestFormatRoundTripByteIdentical(t *testing.T) {
	imported, want := importPaper(t, fullSet(t, 6))
	for _, format := range []Format{FormatCSV, FormatBinary} {
		imported.Config.Format = format
		dir := t.TempDir()
		if err := imported.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		got := readDir(t, dir)
		for name, data := range want {
			if format == FormatBinary && name != MetaFile && !strings.HasSuffix(name, ".bin") {
				continue
			}
			if got[name] != data {
				t.Errorf("%s: %s differs after import and write:\nwant:\n%q\ngot:\n%q", format, name, data, got[name])
			}
			delete(got, name)
		}
		for name := range got {
			t.Errorf("%s: the write after import added %s", format, name)
		}
	}
}

// rewriteSet is a 2-PE trace whose PE 0 sends n times: of every kind when
// full, of the logical and overall kinds alone (no physical trace, no
// segments, no PAPI events) otherwise. What a directory holds after
// WriteFiles in format is told by the arguments alone.
func rewriteSet(format Format, n int, full bool) *Set {
	cfg := Config{Logical: true, Overall: true, Format: format}
	if full {
		cfg.Physical, cfg.PAPIEvents = true, []papi.Event{papi.TOT_INS}
	}
	s := NewSet(cfg, 2, 2)
	for i := 0; i < n; i++ {
		s.Logical[0] = append(s.Logical[0], LogicalSend{DstPE: 1, MsgSize: int32(8 + i)})
		if full {
			s.PAPI[0] = append(s.PAPI[0], PAPISend{DstPE: 1, PktSize: 8, NumSends: 1})
			s.PAPICounters[0] = append(s.PAPICounters[0], int64(100+i))
			s.Physical[0] = append(s.Physical[0], PhysicalRecord{Kind: conveyor.LocalSend, BufBytes: 64 * (i + 1), SrcPE: 0, DstPE: 1})
		}
	}
	s.LogicalSendCount[0] = int64(n)
	s.Overall = []OverallRecord{{PE: 0, TMain: int64(n), TComm: 1, TProc: 2, TTotal: int64(n) + 3}}
	if full {
		s.Segments[0] = []SegmentRecord{{PE: 0, Name: "relax", Count: int64(n), Cycles: 9, Counters: []int64{int64(n)}}}
	}
	return s
}

// TestRewriteReplacesSiblingEncoding: a directory written in one format
// and then rewritten in the other - by a write that also leaves out the
// physical trace, the segments and the PAPI events - holds the files, and
// reads back the records and features, of the second write alone, in
// both orders. A leftover shard of a layout, a kind or the time index the
// second write does not produce would be read back with it.
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
			if err := rewriteSet(order[0], 1, true).WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			if built, err := BuildTimeIndex(dir); err != nil || !built {
				t.Fatalf("BuildTimeIndex: built=%v err=%v", built, err)
			}
			for _, d := range []string{dir, fresh} {
				if err := rewriteSet(order[1], 3, false).WriteFiles(d); err != nil {
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
			if !reflect.DeepEqual(got.Config, want.Config) {
				t.Fatalf("the rewritten directory reads as %+v, a fresh write as %+v", got.Config, want.Config)
			}
			gotSum, _, err := ReadSummary(dir, ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if wantSum := want.Summary(); !reflect.DeepEqual(gotSum, wantSum) {
				t.Fatalf("ReadSummary of the rewritten directory:\n got %+v\nwant %+v", gotSum, wantSum)
			}
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
	segs := append(slices.Concat(set.Segments...), SegmentRecord{PE: 9, Name: "rogue", Count: 1, Cycles: 5, Counters: []int64{1, 1}})
	if err := writeShard(&segmentsKind, dir, 0, eventNames(set.Config.PAPIEvents), len(segs), func(i int) SegmentRecord { return segs[i] }); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadSet(dir); err == nil {
		t.Fatal("strict read accepted a segment record with PE 9 in a 2-PE trace")
	} else if !strings.Contains(err.Error(), "outside") {
		t.Fatalf("error should name the PE range violation, got: %v", err)
	}

	back, skipped, err := readSet(dir, ReadOptions{Tolerant: true})
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
			pc.PhysicalSendAt(conveyor.LocalSend, 64, pe, (pe+1)%6, 0)
			pc.PhysicalSendAt(conveyor.NonblockSend, 128, pe, (pe+3)%6, 0)
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
