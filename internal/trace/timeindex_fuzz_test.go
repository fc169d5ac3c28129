package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTimeIndexBlock throws arbitrary bytes at the time-index decoder:
// decoding must never panic, and any index that passes validation must
// answer pyramid queries without panicking - and, when it covers a data
// file of the fixture's size, raw-event queries, which send its block
// extents into the byte-slice block decoder. The seed corpus is a real
// sidecar plus the classic corruptions (truncations, magic-only,
// zero-length), a 10-byte varint past 64 bits, a block table and a
// block claiming more than the bytes left, and a final varint cut
// mid-byte.
func FuzzTimeIndexBlock(f *testing.F) {
	dir, err := os.MkdirTemp("", "aptx-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	s := NewSet(Config{Physical: true, Format: FormatBinary}, 4, 2)
	for pe := 0; pe < 4; pe++ {
		for i := 0; i < 300; i++ {
			s.Physical[pe] = append(s.Physical[pe], PhysicalRecord{
				Kind: 1, BufBytes: 64, SrcPE: pe, DstPE: (pe + 1) % 4,
				Cycles: int64(pe*300+i) + 1,
			})
		}
	}
	if err := s.WriteFiles(dir); err != nil {
		f.Fatal(err)
	}
	if _, err := BuildTimeIndex(dir); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(dir, timeIndexFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)/2])
	f.Add(clean[:9])
	f.Add([]byte("APTX"))
	f.Add([]byte{})
	f.Add(append([]byte("APTX\x01\x01"), "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"...))
	// 2^40 blocks over a 2^62-byte data file, claimed in 20 bytes: the
	// table must be refused before it is sized.
	huge := []byte("APTX\x01\x01")
	for _, u := range []uint64{5, 1 << 62, 10, 1 << 40} {
		huge = binary.AppendUvarint(huge, u)
	}
	f.Add(huge)
	overclaim, err := decodeTimeIndex(clean, "fixture")
	if err != nil {
		f.Fatal(err)
	}
	overclaim.blocks[0].rows += int(overclaim.blocks[0].length)
	overclaim.nrows += overclaim.blocks[0].length
	wide := f.TempDir()
	if err := writeTimeIndex(wide, overclaim); err != nil {
		f.Fatal(err)
	}
	wideRaw, err := os.ReadFile(filepath.Join(wide, timeIndexFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wideRaw)
	f.Add(append(clean[:len(clean)-1:len(clean)-1], 0x80))
	data, err := os.Stat(filepath.Join(dir, physicalBinFile))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		ix, err := decodeTimeIndex(raw, "fuzz")
		if err != nil {
			return // rejected: the full-scan fallback takes over
		}
		// A decodable index must hold its invariants well enough that
		// pyramid queries cannot go out of bounds or panic.
		for _, q := range []Window{
			{T0: ix.TMin, T1: ix.TMax + 1, LOD: 1},
			{T0: ix.TMin - 100, T1: ix.TMax + 100, LOD: 99},
			{T0: 0, T1: 1, LOD: 3},
			{T0: 5, T1: 5, LOD: 1},
		} {
			res := ix.newResult(q)
			if res.LOD >= 1 {
				ix.queryPyramid(clampWindow(q, ix.TMin, ix.TMax), res)
			}
			for _, b := range res.Buckets {
				if b.Count < 0 || b.Bytes < 0 {
					t.Fatalf("decoded index yielded negative bucket %+v", b)
				}
			}
		}
		if ix.dataSize == data.Size() { // what LoadTimeIndex would admit
			ix.npes = 4
			_, _ = ix.Query(dir, Window{T0: ix.TMin, T1: ix.TMax + 1})
		}
	})
}
