package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzReadLogical reads dir's PE0 logical shard (CSV or binary, sniffed
// by content like ReadSet does) of a one-PE-per-node world.
func fuzzReadLogical(dir string, tolerant bool) ([]LogicalRecord, int, error) {
	var recs []LogicalRecord
	_, skipped, err := scanShard(&logicalKind, dir, 0, &meta{npes: maxReadPEs, perNode: 1}, tolerant, func(r LogicalRecord) {
		recs = append(recs, r)
	})
	return recs, skipped, err
}

// FuzzReadLogicalFile throws arbitrary bytes at the PEi_send.csv reader:
// it must either error or return records, never panic - and a successful
// parse must be stable under rewrite-and-reparse (the visualizer reads
// files the profiler wrote).
func FuzzReadLogicalFile(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("0,1,0,2,8\n"))
	f.Add([]byte("0,1,0,2,8,99\n\n1,15,0,3,16\n"))
	f.Add([]byte("not,a,number,at,all\n"))
	f.Add([]byte("1,2,3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "PE0_send.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Tolerant mode must never error on content problems, only skip.
		if _, _, err := fuzzReadLogical(dir, true); err != nil {
			t.Fatalf("tolerant read errored: %v", err)
		}
		recs, _, err := fuzzReadLogical(dir, false)
		if err != nil {
			return
		}
		// Idempotence: emit the parsed records in the writer's format and
		// parse again - must reproduce the same records.
		if err := writeShard(&logicalKind, dir, 0, FormatCSV, nil, len(recs), func(i int) LogicalRecord { return recs[i] }); err != nil {
			t.Fatal(err)
		}
		again, _, err := fuzzReadLogical(dir, false)
		if err != nil {
			t.Fatalf("re-reading rewritten file: %v", err)
		}
		if len(recs) != len(again) || (len(recs) > 0 && !reflect.DeepEqual(recs, again)) {
			t.Fatalf("reparse changed records:\n%+v\nvs\n%+v", recs, again)
		}
	})
}

// FuzzBinaryLogicalShard throws arbitrary bytes at the APBF binary
// decoder through the shard reader: truncated headers, bad version or
// kind bytes, and torn block tails must never panic or allocate
// unboundedly. Tolerant mode (how ReadSetLive reads torn files) must
// never error; a successful strict parse must survive a binary
// rewrite-and-reparse round trip.
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
// a valid meta and the data in every per-PE and shared file. ReadSet
// must return a set or an error, never panic. On the second directory
// the two tolerant readers are also each other's differential oracle:
// they share one walker, so ReadSummary must fold exactly the records
// ReadSetLive admits, with the same skipped count, and ReadPhysical
// must return exactly its physical records.
func FuzzReadSet(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("num_PEs 1\nPEs_per_node 1\nlogical_sample 1\n"))
	f.Add([]byte("0,0,0,0,8\n"))
	f.Add([]byte("Absolute [PE0] TCOMM_PROFILING (1, 2, 3)\n"))
	f.Add([]byte("local_send,64,0,0\n"))
	f.Add([]byte("[PE0] SEGMENT relax count=3 cycles=99\n"))
	f.Add([]byte("[PE0] SEGMENT x count=y\n"))
	f.Add([]byte("0,0,0,1,8,0,1,42\n0,1,0,0,8,-1,0,7\n"))
	f.Add([]byte("Absolute [PE7] TCOMM_PROFILING (1, 2, 3)\n[PE7] SEGMENT x count=1 cycles=2\n"))
	// Send rows a packed Set cannot hold (kind.go checkSend): another
	// shard's source, a node that is not the PE's, a field past 32 bits.
	f.Add([]byte("0,1,0,0,8\n0,0,0,1,8,0,1,42\n"))
	f.Add([]byte("1,0,0,1,8\n0,0,1,1,8\n"))
	f.Add([]byte("0,0,0,1,4294967296\n0,0,0,1,8,0,4294967296,7\n"))
	f.Add([]byte(apbf(binKindLogical, []int64{0, 1, 0, 0, 8}, []int64{1, 0, 0, 1, 8}, []int64{0, 0, 1, 1, 8}, []int64{0, 0, 0, 1, 1 << 32})))
	f.Add([]byte(apbf(binKindPAPI, []int64{0, 1, 0, 0, 8, 0, 1, 42}, []int64{0, 0, 0, 1, 1 << 32, 0, 1, 7})))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Case 1: the meta file itself is hostile.
		dirA := t.TempDir()
		if err := os.WriteFile(filepath.Join(dirA, "actorprof_meta.txt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadSet(dirA)
		_, _, _ = ReadSetLive(dirA)

		// Case 2: valid meta, hostile everything else.
		dirB := t.TempDir()
		meta := []byte("num_PEs 2\nPEs_per_node 2\npapi_events PAPI_TOT_INS\nlogical_sample 1\n")
		if err := os.WriteFile(filepath.Join(dirB, "actorprof_meta.txt"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{
			"PE0_send.csv", "PE1_send.csv", "PE0_PAPI.csv", "PE1_PAPI.csv",
			"overall.txt", "physical.txt", "segments.txt",
			"PE0_send.bin", "PE0_PAPI.bin",
		} {
			if err := os.WriteFile(filepath.Join(dirB, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = ReadSet(dirB)
		// The live reader must tolerate the same hostility without error:
		// with a valid meta, content-level corruption is skipped, not fatal.
		set, skipped, err := ReadSetLive(dirB)
		if err != nil {
			t.Fatalf("ReadSetLive errored on content corruption: %v", err)
		}
		sum, sumSkipped, err := ReadSummary(dirB, ReadOptions{Tolerant: true})
		if err != nil {
			t.Fatalf("ReadSummary errored on content corruption: %v", err)
		}
		if sumSkipped != skipped {
			t.Fatalf("ReadSummary skipped %d, ReadSetLive skipped %d", sumSkipped, skipped)
		}
		if want := set.Summary(); !reflect.DeepEqual(sum, want) {
			t.Fatalf("ReadSummary differs from ReadSetLive(...).Summary():\n got %+v\nwant %+v", sum, want)
		}
		// The third consumer of that walker reads the physical kind alone:
		// the same physical records, and none of the other files' skips.
		phys, physSkipped, err := ReadPhysical(dirB, ReadOptions{Tolerant: true})
		if err != nil {
			t.Fatalf("ReadPhysical errored on content corruption: %v", err)
		}
		if !reflect.DeepEqual(phys.Physical, set.Physical) || phys.Config.Physical != set.Config.Physical {
			t.Fatalf("ReadPhysical differs from ReadSetLive(...).Physical:\n got %+v\nwant %+v", phys.Physical, set.Physical)
		}
		for _, name := range []string{
			"PE0_send.csv", "PE1_send.csv", "PE0_PAPI.csv", "PE1_PAPI.csv",
			"overall.txt", "segments.txt", "PE0_send.bin", "PE0_PAPI.bin",
		} {
			os.Remove(filepath.Join(dirB, name))
		}
		if _, share, err := ReadSetLive(dirB); err != nil || physSkipped != share {
			t.Fatalf("ReadPhysical skipped %d, the physical files' share is %d (err %v)", physSkipped, share, err)
		}
	})
}
