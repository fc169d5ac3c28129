package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// fuzzReadLogical reads dir's PE0 APBF logical shard of a
// one-PE-per-node world.
func fuzzReadLogical(dir string, tolerant bool) ([]LogicalRecord, int, error) {
	var recs []LogicalRecord
	_, skipped, err := scanShard(&logicalKind, dir, 0, &meta{npes: maxReadPEs, perNode: 1}, tolerant, func(r LogicalRecord) {
		recs = append(recs, r)
	})
	return recs, skipped, err
}

// FuzzReadLogicalFile throws arbitrary bytes at ImportPaper as a
// PEi_send.csv: the import must never error on content (it skips what it
// cannot admit) and never panic, and what it imports must be stable under
// write-and-reimport - with the APBF files written beside the text
// reading back the same records.
func FuzzReadLogicalFile(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("0,1,0,2,8\n"))
	f.Add([]byte("0,0,0,1,8,99\n\n0,0,1,3,16\n"))
	f.Add([]byte("not,a,number,at,all\n"))
	f.Add([]byte("1,2,3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte("num_PEs 4\nPEs_per_node 2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "PE0_send.csv"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := ImportPaper(dir)
		if err != nil {
			t.Fatalf("import errored on content: %v", err)
		}
		again := t.TempDir()
		s.Config.Format = FormatCSV
		if err := s.WriteFiles(again); err != nil {
			t.Fatal(err)
		}
		re, skipped, err := ImportPaper(again)
		if err != nil || skipped != 0 {
			t.Fatalf("re-importing the written layout: skipped %d, err %v", skipped, err)
		}
		bin, err := ReadSet(again)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Set{re, bin} {
			same := slices.EqualFunc(got.Logical, s.Logical, slices.Equal[[]LogicalSend])
			if !same || got.Config.Logical != s.Config.Logical {
				t.Fatalf("write and re-read changed the records:\n%+v\nvs\n%+v", got.Logical, s.Logical)
			}
		}
	})
}

// FuzzBinaryLogicalShard throws arbitrary bytes at the APBF binary
// decoder through the shard reader: truncated headers, bad version or
// kind bytes, and torn block tails must never panic or allocate
// unboundedly. Tolerant mode must never error; a successful strict parse
// must survive a binary rewrite-and-reparse round trip.
func FuzzBinaryLogicalShard(f *testing.F) {
	valid := func() []byte {
		dir := f.TempDir()
		s := NewSet(Config{Logical: true, Format: FormatBinary}, 2, 2)
		s.Logical[0] = []LogicalSend{{DstPE: 1, MsgSize: 8}, {DstPE: 0, MsgSize: 1 << 20}}
		s.Logical[1] = []LogicalSend{{DstPE: 0, MsgSize: 16}}
		if err := s.WriteFiles(dir); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, logicalBinFile(0)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:4])                                               // magic only: truncated header
	f.Add(valid[:6])                                               // no column count
	f.Add(valid[:len(valid)-3])                                    // torn tail mid-block
	f.Add(append([]byte{}, "APBF\xff\x01\x05"...))                 // bad version byte
	f.Add(append([]byte{}, "APBF\x01\x09\x05"...))                 // bad kind byte
	f.Add(append([]byte{}, "APBF\x01\x01\xff\xff\xff\xff\x0f"...)) // absurd column count
	for _, h := range hostileBlocks() {
		f.Add(h.data)
	}
	// A bad row in mid-block - another source PE, a destination node that
	// is not the PE's, a size past 32 bits - between rows the shard admits.
	good := []int64{0, 0, 3, 3, 8}
	f.Add([]byte(apbf(binKindLogical, good, []int64{0, 1, 1, 1, 8}, good)))
	f.Add([]byte(apbf(binKindLogical, good, good, []int64{0, 0, 2, 3, 8}, []int64{0, 0, 1, 1, 1 << 32}, good)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logicalBinFile(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fuzzReadLogical(dir, true); err != nil {
			t.Fatalf("tolerant binary read errored: %v", err)
		}
		recs, _, err := fuzzReadLogical(dir, false)
		if err != nil {
			return
		}
		// An admitted row is PE 0's own send at one PE per node, which the
		// packed record holds exactly.
		s := NewSet(Config{Logical: true, Format: FormatBinary}, 1, 1)
		for _, r := range recs {
			s.Logical[0] = append(s.Logical[0], LogicalSend{int32(r.DstPE), int32(r.MsgSize)})
		}
		if err := s.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		again, _, err := fuzzReadLogical(dir, false)
		if err != nil {
			t.Fatalf("re-reading rewritten binary file: %v", err)
		}
		if len(recs) != len(again) || (len(recs) > 0 && !reflect.DeepEqual(recs, again)) {
			t.Fatalf("binary reparse changed records:\n%+v\nvs\n%+v", recs, again)
		}
	})
}

// FuzzReadSet drives the whole trace-directory reader over hostile file
// contents: first with the fuzz data as the meta file itself, then with
// a valid meta and the data in all seven APBF files. ReadSet must return
// a set or an error, never panic. On the second directory the tolerant
// readers are also each other's differential oracle: they share one
// walker, so ReadSummary must fold exactly the records a tolerant readSet
// admits, with the same skipped count, and ReadPhysical must return
// exactly its physical records.
func FuzzReadSet(f *testing.F) {
	// shard is one APBF file of a clean 2-PE trace of every kind.
	shard := func(name string) []byte {
		s := NewSet(Config{Logical: true, Physical: true, Overall: true, PAPIEvents: []papi.Event{papi.TOT_INS}}, 2, 2)
		s.Logical[0] = []LogicalSend{{DstPE: 1, MsgSize: 8}}
		s.PAPI[0], s.PAPICounters[0] = []PAPISend{{DstPE: 1, PktSize: 8, NumSends: 1}}, []int64{42}
		s.Physical[0] = []PhysicalRecord{{Kind: conveyor.LocalSend, BufBytes: 64, SrcPE: 0, DstPE: 0, Cycles: 7}}
		s.Overall = []OverallRecord{{PE: 0, TMain: 1, TComm: 2, TProc: 3, TTotal: 6}}
		s.Segments[0] = []SegmentRecord{{PE: 0, Name: "relax", Count: 3, Cycles: 99, Counters: []int64{5}}}
		dir := f.TempDir()
		if err := s.WriteFiles(dir); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add([]byte(""))
	f.Add([]byte("num_PEs 1\nPEs_per_node 1\nlogical_sample 1\n"))
	f.Add(shard(logicalBinFile(0)))
	f.Add(shard(overallBinFile))
	f.Add(shard(physicalBinFile))
	f.Add(shard(segmentsBinFile))
	segments := shard(segmentsBinFile)
	f.Add(segments[:len(segments)-2]) // a torn segments block
	f.Add(shard(papiBinFile(0)))
	f.Add([]byte(apbf(binKindOverall, []int64{7, 1, 2, 3})))
	// Send rows a packed Set cannot hold (kind.go checkSend): another
	// shard's source, a node that is not the PE's, a field past 32 bits.
	f.Add([]byte(apbf(binKindLogical, []int64{0, 1, 0, 0, 8})))
	f.Add([]byte(apbf(binKindLogical, []int64{1, 0, 0, 1, 8}, []int64{0, 0, 1, 1, 8})))
	f.Add([]byte(apbf(binKindPAPI, []int64{0, 0, 0, 1, 8, 0, 1 << 32, 7})))
	f.Add([]byte(apbf(binKindLogical, []int64{0, 1, 0, 0, 8}, []int64{1, 0, 0, 1, 8}, []int64{0, 0, 1, 1, 8}, []int64{0, 0, 0, 1, 1 << 32})))
	f.Add([]byte(apbf(binKindPAPI, []int64{0, 1, 0, 0, 8, 0, 1, 42}, []int64{0, 0, 0, 1, 1 << 32, 0, 1, 7})))
	// A bad row in mid-block, between rows PE 0's shard admits.
	goodL, goodP := []int64{0, 0, 0, 1, 8}, []int64{0, 0, 0, 1, 8, 0, 1, 42}
	f.Add([]byte(apbf(binKindLogical, goodL, goodL, []int64{0, 0, 1, 1, 8}, goodL)))
	f.Add([]byte(apbf(binKindPAPI, goodP, []int64{0, 0, 0, 1, 8, 1 << 31, 1, 7}, goodP, goodP)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Case 1: the meta file itself is hostile.
		dirA := t.TempDir()
		if err := os.WriteFile(filepath.Join(dirA, MetaFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadSet(dirA)
		_, _, _ = readSet(dirA, ReadOptions{Tolerant: true})

		// Case 2: valid meta, hostile everything else.
		dirB := t.TempDir()
		meta := []byte("num_PEs 2\nPEs_per_node 2\npapi_events PAPI_TOT_INS\nlogical_sample 1\n")
		if err := os.WriteFile(filepath.Join(dirB, MetaFile), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		others := []string{
			logicalBinFile(0), logicalBinFile(1), papiBinFile(0), papiBinFile(1),
			overallBinFile, segmentsBinFile,
		}
		for _, name := range append(others, physicalBinFile) {
			if err := os.WriteFile(filepath.Join(dirB, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = ReadSet(dirB)
		// The tolerant reader must take the same hostility without error:
		// with a valid meta, content-level corruption is skipped, not fatal.
		set, skipped, err := readSet(dirB, ReadOptions{Tolerant: true})
		if err != nil {
			t.Fatalf("tolerant readSet errored on content corruption: %v", err)
		}
		sum, sumSkipped, err := ReadSummary(dirB, ReadOptions{Tolerant: true})
		if err != nil {
			t.Fatalf("ReadSummary errored on content corruption: %v", err)
		}
		if sumSkipped != skipped {
			t.Fatalf("ReadSummary skipped %d, tolerant readSet skipped %d", sumSkipped, skipped)
		}
		if want := set.Summary(); !reflect.DeepEqual(sum, want) {
			t.Fatalf("ReadSummary differs from readSet(...).Summary():\n got %+v\nwant %+v", sum, want)
		}
		// The third consumer of that walker reads the physical kind alone:
		// the same physical records, and none of the other files' skips.
		phys, physSkipped, err := ReadPhysical(dirB, ReadOptions{Tolerant: true})
		if err != nil {
			t.Fatalf("ReadPhysical errored on content corruption: %v", err)
		}
		if !reflect.DeepEqual(phys.Physical, set.Physical) || phys.Config.Physical != set.Config.Physical {
			t.Fatalf("ReadPhysical differs from readSet(...).Physical:\n got %+v\nwant %+v", phys.Physical, set.Physical)
		}
		for _, name := range others {
			os.Remove(filepath.Join(dirB, name))
		}
		if _, share, err := readSet(dirB, ReadOptions{Tolerant: true}); err != nil || physSkipped != share {
			t.Fatalf("ReadPhysical skipped %d, the physical file's share is %d (err %v)", physSkipped, share, err)
		}
	})
}
