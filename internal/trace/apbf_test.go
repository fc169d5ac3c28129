package trace

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// scanShard is scan yielding records, what the conformance and fuzz suites
// hold every kind to: the run-wide kinds on their row path, the send kinds
// through the packers walk uses (logicalSends, papiSends), each packed
// send rebuilt as the row it was admitted as - source pe, nodes PE /
// PEs_per_node.
func scanShard[T any](k *kind[T], dir string, pe int, m *meta, tolerant bool, yield func(T)) (found bool, skipped int, err error) {
	var admit rowFunc
	switch y := any(yield).(type) {
	case func(LogicalRecord):
		admit = logicalSends(m, pe, func(s LogicalSend) {
			dst := int(s.DstPE)
			y(LogicalRecord{pe / m.perNode, pe, dst / m.perNode, dst, int(s.MsgSize)})
		})
	case func(PAPIRecord):
		admit = papiSends(m, pe, func(s PAPISend, counters []int64) {
			dst := int(s.DstPE)
			y(PAPIRecord{pe / m.perNode, pe, dst / m.perNode, dst, int(s.PktSize), int(s.MailboxID), int(s.NumSends), counters})
		})
	default:
		admit = rowsOf(k)(m, pe, yield)
	}
	return scan(k, dir, pe, tolerant, admit)
}

// writeShard is writeShardFill for PE pe's shard of n records: the send
// kinds' APBF columns are filled from the records as they are, so a test
// can write a row a packed Set could not hold.
func writeShard[T any](k *kind[T], dir string, pe int, events []string, n int, at func(i int) T) error {
	// row is record i's fields and counters, nil for the run-wide kinds.
	var row func(i int) ([]int, []int64)
	switch at := any(at).(type) {
	case func(int) LogicalRecord:
		row = func(i int) ([]int, []int64) {
			r := at(i)
			return []int{r.SrcNode, r.SrcPE, r.DstNode, r.DstPE, r.MsgSize}, nil
		}
	case func(int) PAPIRecord:
		row = func(i int) ([]int, []int64) {
			r := at(i)
			return []int{r.SrcNode, r.SrcPE, r.DstNode, r.DstPE, r.PktSize, r.MailboxID, r.NumSends}, r.Counters
		}
	}
	fill := func(cols [][]int64, lo int) {
		for i := range cols[0] {
			vals, counters := row(lo + i)
			for c := range cols {
				switch e := c - len(vals); {
				case e < 0:
					cols[c][i] = int64(vals[c])
				case e < len(counters):
					cols[c][i] = counters[e]
				default: // ragged counters pad with zeros
					cols[c][i] = 0
				}
			}
		}
	}
	return writeShardFill(k, dir, k.binFile(pe), events, n, at, fill)
}

// newBinReader is a binReader at the first block of everything r holds,
// or nil for an empty file.
func newBinReader(r io.Reader, path string, wantKind byte, minCols int) (*binReader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := new(binReader)
	d.reset(nil, data, 0, 0)
	if ok, err := d.header(path, wantKind, minCols); !ok {
		return nil, err
	}
	return d, nil
}

// seek is reset to everything r holds: bytes of d's file from the block
// boundary at offset off on, whose first row has index rowBase.
func (d *binReader) seek(r io.Reader, off, rowBase int64) {
	data, err := io.ReadAll(r)
	if err != nil {
		panic(err)
	}
	d.reset(nil, data, off, rowBase)
}

// hostileBlock is an APBF logical shard whose one block the decoder must
// count as torn, with the rows the block claims.
type hostileBlock struct {
	name    string
	data    []byte
	claimed int
}

func hostileBlocks() []hostileBlock {
	const hdr = "APBF\x01\x01\x05" // logical, 5 columns
	return []hostileBlock{
		// One row whose first value is a 10-byte varint past 64 bits.
		{"varint-overflow", []byte(hdr + "\x01" + strings.Repeat("\xff", 9) + "\x02" + "\x00\x00\x00\x00"), 1},
		// 1 000 rows of 5 columns in the 10 bytes left.
		{"rows-past-the-end", []byte(hdr + "\xe8\x07" + strings.Repeat("\x00", 10)), 1000},
		// Two rows whose last value stops after a continuation byte.
		{"final-varint-cut", []byte(hdr + "\x02" + strings.Repeat("\x00", 9) + "\x80"), 2},
	}
}

// TestHostileBlocksCountTorn: each hostile block is an error to a strict
// read and, to a tolerant one, exactly the rows it claimed skipped - on
// the row path and on the send column path alike.
func TestHostileBlocksCountTorn(t *testing.T) {
	for _, h := range hostileBlocks() {
		t.Run(h.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logicalBinFile(0)), h.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if recs, _, err := fuzzReadLogical(dir, false); err == nil {
				t.Fatalf("strict read accepted it: %+v", recs)
			}
			if recs, skipped, err := fuzzReadLogical(dir, true); err != nil || skipped != h.claimed || len(recs) != 0 {
				t.Fatalf("tolerant read: %d records, %d skipped, err %v; want 0, %d, nil", len(recs), skipped, err, h.claimed)
			}
			if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte("num_PEs 1\nPEs_per_node 1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if s, skipped, err := readSet(dir, ReadOptions{Tolerant: true}); err != nil || skipped != h.claimed || len(s.Logical[0]) != 0 {
				t.Fatalf("tolerant readSet: skipped %d, err %v; want %d, nil", skipped, err, h.claimed)
			}
		})
	}
}

// pinnedSet is a fixed Set over all five record kinds and two PAPI
// events whose send counts (2 600, 1 600 and 600 on PEs 0-2) are not
// multiples of binBlockRows, so every send shard ends in a partial block.
// Its fields span what the varints must carry: negative mailboxes and
// counter deltas, 40-bit counters, 20-bit payload sizes.
func pinnedSet() *Set {
	const npes, perNode = 3, 2
	s := NewSet(Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
		Format:     FormatBinary,
	}, npes, perNode)
	rng := uint64(0x2545f4914f6cdd1d)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for pe := 0; pe < npes; pe++ {
		n := 2600 - 1000*pe
		for i := 0; i < n; i++ {
			s.Logical[pe] = append(s.Logical[pe], LogicalSend{DstPE: int32(next(npes)), MsgSize: int32(next(1 << 20))})
		}
		s.LogicalSendCount[pe] = int64(n)
		for i := 0; i < n/3; i++ {
			s.PAPI[pe] = append(s.PAPI[pe], PAPISend{
				DstPE: int32(next(npes)), PktSize: int32(8 + next(64)), MailboxID: int32(next(3) - 1), NumSends: int32(1 + next(3)),
			})
			s.PAPICounters[pe] = append(s.PAPICounters[pe], int64(next(1<<40)), int64(next(1000)-500))
		}
		for i := 0; i < n/4; i++ {
			s.Physical[pe] = append(s.Physical[pe], PhysicalRecord{
				Kind: conveyor.SendKind(next(3)), BufBytes: 64 * (1 + next(64)),
				SrcPE: pe, DstPE: next(npes), Cycles: int64(1000*i + next(1000)),
			})
		}
		tm, tc, tp := int64(next(1<<30)), int64(next(1<<30)), int64(next(1<<30))
		s.Overall = append(s.Overall, OverallRecord{PE: pe, TMain: tm, TComm: tc, TProc: tp, TTotal: tm + tc + tp})
		s.Segments[pe] = []SegmentRecord{
			{PE: pe, Name: "relax", Count: int64(next(1 << 16)), Cycles: int64(next(1 << 30)), Counters: []int64{int64(next(1 << 20)), 0}},
			{PE: pe, Name: "scan", Count: 1, Cycles: int64(next(1 << 30)), Counters: []int64{int64(next(1 << 20)), int64(next(1 << 10))}},
		}
	}
	return s
}

// TestAPBFBytesPinned holds the APBF writer to the bytes it has always
// written: every file of pinnedSet's directory hashes to its line in
// testdata/apbf_sha256.golden (sha256sum's layout, in
// ReadDir's name order).
func TestAPBFBytesPinned(t *testing.T) {
	dir := t.TempDir()
	if err := pinnedSet().WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%x  %s\n", sha256.Sum256(data), e.Name()))
	}
	checkExportGolden(t, "apbf_sha256", []byte(strings.Join(lines, "")))
}
