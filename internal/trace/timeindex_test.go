package trace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// cycleSet fabricates a physical-only trace whose every record carries
// a nonzero virtual-clock value (the cycles domain), spanning enough
// records that the binary file holds many blocks.
func cycleSet(t *testing.T, npes, recsPerPE int) *Set {
	t.Helper()
	c, err := NewCollector(Config{Physical: true, Format: FormatBinary}, machine(npes, 4))
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < npes; pe++ {
		pc := c.ForPE(pe, papi.NewEngine())
		for i := 0; i < recsPerPE; i++ {
			kind := conveyor.SendKind(i % 3)
			cycles := int64(pe*37+i*11) + 1 // nonzero, overlapping across PEs
			pc.PhysicalSendAt(kind, 64+i%256, pe, (pe+1+i)%npes, cycles)
		}
		pc.Close()
	}
	return c.Set()
}

// writeIndexedDir writes s in binary format and backfills the index.
func writeIndexedDir(t *testing.T, s *Set) string {
	t.Helper()
	dir := t.TempDir()
	s.Config.Format = FormatBinary
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	built, err := BuildTimeIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("BuildTimeIndex found nothing to index")
	}
	return dir
}

// compareWindow checks that an indexed query and the brute-force
// reference agree on everything but provenance.
func compareWindow(t *testing.T, label string, got, want *WindowResult) {
	t.Helper()
	if got.Domain != want.Domain || got.LOD != want.LOD || got.BucketWidth != want.BucketWidth ||
		got.TMin != want.TMin || got.TMax != want.TMax || got.Truncated != want.Truncated {
		t.Fatalf("%s: metadata differs:\ngot  %+v\nwant %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: events differ (%d vs %d):\ngot  %+v\nwant %+v",
			label, len(got.Events), len(want.Events), got.Events, want.Events)
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) {
		t.Fatalf("%s: buckets differ (%d vs %d):\ngot  %+v\nwant %+v",
			label, len(got.Buckets), len(want.Buckets), got.Buckets, want.Buckets)
	}
}

// TestWindowQueryMatchesReference is the core differential suite:
// randomized (t0, t1, lod) triples against both clock domains, indexed
// path vs the brute-force Set reference.
func TestWindowQueryMatchesReference(t *testing.T) {
	fixtures := map[string]*Set{
		"cycles":   cycleSet(t, 16, 300),
		"sequence": fullSet(t, 8),
	}
	for name, set := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir := writeIndexedDir(t, set)
			ix, err := LoadTimeIndex(dir)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ReadSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			span := ix.TMax - ix.TMin + 1
			for trial := 0; trial < 200; trial++ {
				t0 := ix.TMin - 5 + rng.Int63n(span+10)
				t1 := t0 + rng.Int63n(span/2+10)
				q := Window{T0: t0, T1: t1, LOD: rng.Intn(8)}
				got, err := ix.Query(dir, q)
				if err != nil {
					t.Fatal(err)
				}
				want := QueryWindowSet(ref, q)
				compareWindow(t, name, got, want)
			}
			// Degenerate and full-span windows.
			for _, q := range []Window{
				{T0: ix.TMin, T1: ix.TMax + 1},
				{T0: ix.TMax + 100, T1: ix.TMax + 200},
				{T0: 5, T1: 5},
				{T0: ix.TMin, T1: ix.TMax + 1, LOD: 1},
				{T0: ix.TMin, T1: ix.TMax + 1, LOD: 99},
				{T0: ix.TMin, T1: ix.TMax + 1, MaxEvents: 7},
			} {
				got, err := ix.Query(dir, q)
				if err != nil {
					t.Fatal(err)
				}
				compareWindow(t, name, got, QueryWindowSet(ref, q))
			}
		})
	}
}

// TestPyramidFoldProperty pins the pyramid invariant: re-aggregating
// level N pairwise gives exactly level N+1, and level 0 sums to the
// record total.
func TestPyramidFoldProperty(t *testing.T) {
	dir := writeIndexedDir(t, cycleSet(t, 8, 500))
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLevels() < 2 {
		t.Fatalf("pyramid has %d levels, want >= 2", ix.NumLevels())
	}
	var total int64
	for _, b := range ix.levels[0].buckets {
		total += b.Count
	}
	if total != ix.Rows() {
		t.Fatalf("level 0 holds %d events, index covers %d rows", total, ix.Rows())
	}
	for l := 0; l+1 < ix.NumLevels(); l++ {
		cur, next := ix.levels[l], ix.levels[l+1]
		if next.width != 2*cur.width {
			t.Fatalf("level %d width %d, level %d width %d (want doubling)", l, cur.width, l+1, next.width)
		}
		refolded := make([]PyramidBucket, (len(cur.buckets)+1)/2)
		for i, b := range cur.buckets {
			refolded[i/2].fold(b)
		}
		if !reflect.DeepEqual(refolded, next.buckets) {
			t.Fatalf("level %d refolded != level %d", l, l+1)
		}
	}
}

// TestTimeIndexStaleness: an index over a data file that changed size
// must refuse to load.
func TestTimeIndexStaleness(t *testing.T) {
	dir := writeIndexedDir(t, cycleSet(t, 4, 50))
	if _, err := LoadTimeIndex(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, physicalBinFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadTimeIndex(dir); err == nil {
		t.Fatal("stale index loaded without error")
	}
	// QueryWindow still answers, via the full-scan fallback.
	res, err := QueryWindow(dir, Window{T0: 0, T1: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullScan {
		t.Fatal("expected the full-scan fallback on a stale index")
	}
	// Backfill repairs it.
	if _, err := BuildTimeIndex(dir); err != nil {
		t.Fatal(err)
	}
	res, err = QueryWindow(dir, Window{T0: 0, T1: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullScan {
		t.Fatal("rebuilt index not used")
	}
}

// TestWindowQueryCSVFallback: a CSV-only directory carries no index (the
// text format drops the cycles column entirely), so QueryWindow must
// answer through the exact full-scan reference, in the sequence domain.
func TestWindowQueryCSVFallback(t *testing.T) {
	s := cycleSet(t, 6, 40)
	s.Config.Format = FormatCSV
	dir := t.TempDir()
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTimeIndex(dir); err == nil {
		t.Fatal("CSV-only directory loaded a time index")
	}
	ref, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Window{
		{T0: 0, T1: 1 << 40},
		{T0: 3, T1: 90},
		{T0: 0, T1: 1 << 40, LOD: 2},
	} {
		res, err := QueryWindow(dir, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FullScan {
			t.Fatalf("CSV query %+v did not take the full-scan path", q)
		}
		if res.Domain != DomainSequence {
			t.Fatalf("CSV reload produced domain %s, want sequence (physical.txt has no clocks)", res.Domain)
		}
		compareWindow(t, "csv", res, QueryWindowSet(ref, q))
	}
}

// TestWindowQueryLiveFallback: a streaming directory that has not been
// finalized has only .part shards and no sidecar; QueryWindow must
// still answer, via the tolerant live reader and the full scan.
func TestWindowQueryLiveFallback(t *testing.T) {
	dir := t.TempDir()
	m := machine(4, 2)
	c, err := NewStreamingCollector(Config{Physical: true, Format: FormatBinary}, m, dir)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < m.NumPEs; pe++ {
		pc := c.ForPE(pe, papi.NewEngine())
		for i := 0; i < 60; i++ {
			pc.PhysicalSendAt(conveyor.NonblockSend, 128, pe, (pe+1)%m.NumPEs, int64(pe*500+i+1))
		}
		pc.Close()
	}
	// No Finalize: the run is "still live".
	ref, _, err := ReadSetLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := Window{T0: 100, T1: 900, LOD: 0}
	res, err := QueryWindow(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullScan {
		t.Fatal("live query did not take the full-scan path")
	}
	compareWindow(t, "live", res, QueryWindowSet(ref, q))
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptIndexNeverBreaksQueries: flipped or truncated sidecar bytes
// must never panic, and QueryWindow must still produce an answer (via
// the decoded index when the corruption passes validation, via the
// full-scan fallback when it does not).
func TestCorruptIndexNeverBreaksQueries(t *testing.T) {
	dir := writeIndexedDir(t, cycleSet(t, 4, 200))
	path := filepath.Join(dir, timeIndexFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := Window{T0: 10, T1: 500}
	want := QueryWindowSet(ref, q)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		raw := append([]byte(nil), clean...)
		switch trial % 3 {
		case 0: // flip a byte
			raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
		case 1: // truncate
			raw = raw[:rng.Intn(len(raw))]
		case 2: // append garbage
			raw = append(raw, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := QueryWindow(dir, q)
		if err != nil {
			t.Fatalf("trial %d: corrupt sidecar made QueryWindow fail: %v", trial, err)
		}
		if res.FullScan {
			// Validation rejected the corruption; the fallback must be exact.
			compareWindow(t, "corrupt-fallback", res, want)
		}
	}
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedPathAppliesRecordCheck: a physical.bin holding a record the
// readers reject (a destination outside the meta file's world) must not
// be served through the index as if it were fine. A build over it is an
// error and writes no sidecar; a sidecar that predates the bad record
// (and still validates: same length) makes Query fail, not answer; and
// either way QueryWindow lands on the tolerant full scan, field for field.
func TestIndexedPathAppliesRecordCheck(t *testing.T) {
	write := func(dst int) (string, []byte) {
		s := NewSet(Config{Physical: true, Format: FormatBinary}, 2, 2)
		s.Physical[0] = []PhysicalRecord{
			{Kind: conveyor.NonblockSend, BufBytes: 64, SrcPE: 0, DstPE: 1, Cycles: 3},
			{Kind: conveyor.LocalSend, BufBytes: 8, SrcPE: 0, DstPE: dst, Cycles: 5},
		}
		dir := t.TempDir()
		if err := s.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, physicalBinFile))
		if err != nil {
			t.Fatal(err)
		}
		return dir, raw
	}
	dir, good := write(1)
	_, bad := write(7)
	if len(bad) != len(good) {
		t.Fatalf("fixture: patched file is %d bytes, original %d", len(bad), len(good))
	}
	if built, err := BuildTimeIndex(dir); err != nil || !built {
		t.Fatalf("indexing the clean file: built=%v err=%v", built, err)
	}
	if err := os.WriteFile(filepath.Join(dir, physicalBinFile), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadSet(dir); err == nil || !strings.Contains(err.Error(), "dst PE 7 outside [0, 2)") {
		t.Fatalf("ReadSet = %v, want the dst PE range error", err)
	}
	live, skipped, err := ReadSetLive(dir)
	if err != nil || skipped != 1 {
		t.Fatalf("ReadSetLive: skipped=%d err=%v, want the one bad record skipped", skipped, err)
	}
	q := Window{T0: 0, T1: 100}
	want := QueryWindowSet(live, q)
	if len(want.Events) != 1 {
		t.Fatalf("reference holds %d events, want 1", len(want.Events))
	}

	// The sidecar built before the patch still validates against the file.
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		t.Fatalf("the same-length sidecar no longer loads: %v", err)
	}
	if res, err := ix.Query(dir, q); err == nil {
		t.Fatalf("indexed query served the rejected record: %+v", res.Events)
	}
	for _, withSidecar := range []bool{true, false} {
		if !withSidecar {
			os.Remove(filepath.Join(dir, timeIndexFile))
			if built, err := BuildTimeIndex(dir); err == nil || built {
				t.Fatalf("BuildTimeIndex over the bad record: built=%v err=%v, want an error", built, err)
			}
			if _, err := os.Stat(filepath.Join(dir, timeIndexFile)); !os.IsNotExist(err) {
				t.Fatalf("a failed build left a sidecar behind (stat: %v)", err)
			}
		}
		got, err := QueryWindow(dir, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sidecar=%v: QueryWindow differs from the full scan:\ngot  %+v\nwant %+v", withSidecar, got, want)
		}
	}
}

// TestBlockIteratorExtents asserts, where they are produced, the extents
// LoadTimeIndex validates on read: on the 256-block fixture the blocks
// tile the file from the header to its end, each extent decodes alone to
// exactly its block's rows, and a torn tail ends the walk at the last
// complete block.
func TestBlockIteratorExtents(t *testing.T) {
	const npes, recsPerPE = 64, 4096
	dir := writeIndexedDir(t, orderedCycleSet(t, npes, recsPerPE))
	path := filepath.Join(dir, physicalBinFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type blockRows struct {
		block
		recs []PhysicalRecord
	}
	rowsOf := func(t *testing.T, d *binReader, b block) (recs []PhysicalRecord) {
		t.Helper()
		for i := 0; i < b.rows; i++ {
			r := physicalFromRow(d, i)
			if err := checkPhysical(r, npes); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		return recs
	}
	scan := func(data []byte) (blocks []blockRows, headerLen int64, lost int) {
		t.Helper()
		d, err := newBinReader(bytes.NewReader(data), path, binKindPhysical, binPhysicalMinCols)
		if err != nil || d == nil {
			t.Fatalf("newBinReader: d=%v err=%v", d, err)
		}
		headerLen = d.pos()
		lost, err = d.eachBlock(false, func(b block) error {
			blocks = append(blocks, blockRows{b, rowsOf(t, d, b)})
			return nil
		})
		if (err != nil) != (lost > 0) {
			t.Fatalf("walk ended with lost=%d err=%v", lost, err)
		}
		return blocks, headerLen, lost
	}

	blocks, headerLen, lost := scan(raw)
	if lost != 0 || len(blocks) != npes*recsPerPE/binBlockRows {
		t.Fatalf("clean file: %d blocks, lost %d; want %d, 0", len(blocks), lost, npes*recsPerPE/binBlockRows)
	}
	end, rows := headerLen, int64(0)
	for i, b := range blocks {
		if b.off != end || b.length <= 0 || b.rowBase != rows || b.rows != len(b.recs) {
			t.Fatalf("block %d is %+v; want offset %d, first row %d, %d rows", i, b.block, end, rows, len(b.recs))
		}
		end, rows = b.off+b.length, rows+int64(b.rows)
	}
	if end != int64(len(raw)) {
		t.Fatalf("extents end at byte %d, the file at %d", end, len(raw))
	}

	// Each extent alone decodes to its block - the index's Query does this.
	d, err := newBinReader(bytes.NewReader(raw), path, binKindPhysical, binPhysicalMinCols)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, len(blocks) / 2, len(blocks) - 1} {
		want := blocks[i]
		d.seek(io.NewSectionReader(bytes.NewReader(raw), want.off, want.length), want.off, want.rowBase)
		var got blockRows
		if _, err := d.eachBlock(false, func(b block) error {
			got = blockRows{b, append(got.recs, rowsOf(t, d, b)...)}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d decoded alone as %+v, in the walk as %+v", i, got.block, want.block)
		}
	}

	// The index stores exactly these extents.
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ix.blocks {
		if b.block != blocks[i].block {
			t.Fatalf("index block %d is %+v, the iterator says %+v", i, b.block, blocks[i].block)
		}
	}

	// A torn tail: the walk yields every complete block and stops.
	torn, _, lost := scan(raw[:len(raw)-3])
	if len(torn) != len(blocks)-1 || lost != blocks[len(blocks)-1].rows {
		t.Fatalf("torn tail: %d complete blocks, lost %d; want %d, %d",
			len(torn), lost, len(blocks)-1, blocks[len(blocks)-1].rows)
	}
	if !reflect.DeepEqual(torn, blocks[:len(blocks)-1]) {
		t.Fatal("torn tail changed the blocks before it")
	}
}

// orderedCycleSet fabricates a trace whose virtual clock advances with
// file position (cycles = global row index + 1), the shape a real run's
// mostly-monotone clock approximates. Block time spans are then
// disjoint, which is what makes narrow windows cheap.
func orderedCycleSet(t testing.TB, npes, recsPerPE int) *Set {
	c, err := NewCollector(Config{Physical: true, Format: FormatBinary}, machine(npes, 8))
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < npes; pe++ {
		pc := c.ForPE(pe, papi.NewEngine())
		for i := 0; i < recsPerPE; i++ {
			cycles := int64(pe*recsPerPE+i) + 1
			pc.PhysicalSendAt(conveyor.SendKind(i%3), 64, pe, (pe+1)%npes, cycles)
		}
		pc.Close()
	}
	return c.Set()
}

// TestWindowQueryReadsOnlyWindow is the load-shape regression: on a
// 64-PE, multi-hundred-block trace, a narrow window must decode only
// the blocks whose spans intersect it. A full-scan implementation (the
// stub this test was verified to fail against) reports BlocksRead ==
// TotalBlocks and trips the bound immediately.
func TestWindowQueryReadsOnlyWindow(t *testing.T) {
	const npes, recsPerPE = 64, 4096
	dir := writeIndexedDir(t, orderedCycleSet(t, npes, recsPerPE))
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := ix.NumBlocks()
	if total < 250 {
		t.Fatalf("fixture built only %d blocks; load shape needs hundreds", total)
	}
	ref, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	span := ix.TMax - ix.TMin + 1
	windows := []Window{
		{T0: ix.TMin, T1: ix.TMin + span/64},
		{T0: ix.TMin + span/2, T1: ix.TMin + span/2 + span/64},
		{T0: ix.TMax - span/64, T1: ix.TMax + 1},
	}
	for _, q := range windows {
		res, err := ix.Query(dir, q)
		if err != nil {
			t.Fatal(err)
		}
		compareWindow(t, "load-shape", res, QueryWindowSet(ref, q))
		// A 1/64 window over ~256 disjoint-span blocks intersects ~4 of
		// them, plus boundary partials. 8 is generous; 256 is a full scan.
		if res.BlocksRead > 8 {
			t.Fatalf("window %+v decoded %d of %d blocks; O(window) bound is 8",
				q, res.BlocksRead, total)
		}
		if res.TotalBlocks != total {
			t.Fatalf("result reports %d total blocks, index has %d", res.TotalBlocks, total)
		}
	}
	// Zoomed-out queries answer from the pyramid alone: zero block reads.
	res, err := ix.Query(dir, Window{T0: ix.TMin, T1: ix.TMax + 1, LOD: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRead != 0 {
		t.Fatalf("LOD 1 query decoded %d blocks, want 0 (pyramid-only)", res.BlocksRead)
	}
}

// TestStreamingFinalizeWritesIndex: the collector's Finalize is the
// first writer of the sidecar.
func TestStreamingFinalizeWritesIndex(t *testing.T) {
	dir := t.TempDir()
	m := machine(4, 2)
	c, err := NewStreamingCollector(Config{Physical: true, Format: FormatBinary}, m, dir)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < m.NumPEs; pe++ {
		pc := c.ForPE(pe, papi.NewEngine())
		for i := 0; i < 100; i++ {
			pc.PhysicalSendAt(conveyor.NonblockSend, 256, pe, (pe+1)%m.NumPEs, int64(pe*1000+i+1))
		}
		pc.Close()
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Domain != DomainCycles {
		t.Fatalf("streamed trace indexed as %s, want cycles", ix.Domain)
	}
	if ix.Rows() != int64(4*100) {
		t.Fatalf("index covers %d rows, want 400", ix.Rows())
	}
	ref, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := Window{T0: ix.TMin + 10, T1: ix.TMax - 10}
	got, err := ix.Query(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	compareWindow(t, "streamed", got, QueryWindowSet(ref, q))
}
