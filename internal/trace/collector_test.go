package trace

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"actorprof/internal/blocks"
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// fullTrace is core.FullTrace(), which this package cannot import.
func fullTrace() Config {
	return Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
	}
}

// send is one step of a synthetic PE's life: some user-region work, a
// logical send and, on every fourth step, the buffer transfer it fills.
type send struct {
	work         papi.Work
	mailbox, dst int
	size         int
	physical     bool
	cycles       int64
}

func sendSequence(pe, npes, n int) []send {
	seq := make([]send, n)
	for i := range seq {
		seq[i] = send{
			work:     papi.Work{Ins: int64(10 + (i*7+pe)%13), LstIns: int64(i % 5)},
			mailbox:  i % 3,
			dst:      (pe + i) % npes,
			size:     8 + i%24,
			physical: i%4 == 3,
			cycles:   int64(100 * i),
		}
	}
	return seq
}

func (s send) physicalRecord(pe int) PhysicalRecord {
	return PhysicalRecord{Kind: conveyor.LocalSend, BufBytes: 64 * s.size, SrcPE: pe, DstPE: s.dst, Cycles: s.cycles}
}

// collect feeds every PE's sequence through the collector.
func collect(t testing.TB, cfg Config, npes, perNode, n int) *Set {
	t.Helper()
	c, err := NewCollector(cfg, machine(npes, perNode))
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < npes; pe++ {
		eng := papi.NewEngine()
		pc := c.ForPE(pe, eng)
		for _, s := range sendSequence(pe, npes, n) {
			eng.Tally(&s.work)
			pc.LogicalSend(s.mailbox, s.dst, s.size)
			if s.physical {
				r := s.physicalRecord(pe)
				pc.PhysicalSendAt(r.Kind, r.BufBytes, r.SrcPE, r.DstPE, r.Cycles)
			}
		}
		eng.Tally(&papi.Work{Ins: 3}) // drain-phase work: the residual record
		pc.OverallBreakdown(10, 20, 100)
		pc.Close()
	}
	return c.Set()
}

// appendModel builds the set the same calls must produce, the way the
// collector did before it had blocks: plain append, record by record and
// counter by counter. Under fullTrace every send is one logical and one
// PAPI record, and the work after the last send is the residual record.
func appendModel(npes, perNode, n int) *Set {
	cfg := fullTrace()
	want := NewSet(cfg, npes, perNode)
	for pe := 0; pe < npes; pe++ {
		for _, s := range sendSequence(pe, npes, n) {
			want.Logical[pe] = append(want.Logical[pe], LogicalSend{DstPE: int32(s.dst), MsgSize: int32(s.size)})
			want.PAPI[pe] = append(want.PAPI[pe], PAPISend{
				DstPE: int32(s.dst), PktSize: int32(s.size), MailboxID: int32(s.mailbox), NumSends: 1,
			})
			want.PAPICounters[pe] = append(want.PAPICounters[pe], s.work.Ins, s.work.LstIns)
			if s.physical {
				want.Physical[pe] = append(want.Physical[pe], s.physicalRecord(pe))
			}
		}
		want.PAPI[pe] = append(want.PAPI[pe], PAPISend{DstPE: int32(pe), MailboxID: -1})
		want.PAPICounters[pe] = append(want.PAPICounters[pe], 3, 0)
		want.LogicalSendCount[pe] = int64(n)
		want.Overall = append(want.Overall, OverallRecord{PE: pe, TMain: 10, TProc: 20, TComm: 70, TTotal: 100})
	}
	return want
}

// TestCollectorMatchesAppendModel is the differential oracle for the
// block arenas: around every block boundary (and, at two events per
// record, across an arena chunk boundary) the collected set is the one
// plain append builds, record for record.
func TestCollectorMatchesAppendModel(t *testing.T) {
	const npes, perNode = 4, 2
	for _, n := range []int{0, 1, blocks.Len - 1, blocks.Len, blocks.Len + 1, 3*blocks.Len + 7,
		4*blocks.Len - 4, 4 * blocks.Len, 4*blocks.Len + 4, 8*blocks.Len + 12} {
		got, want := collect(t, fullTrace(), npes, perNode, n), appendModel(npes, perNode, n)
		if n == 0 {
			// No sends: the kinds that recorded nothing stay nil.
			if got.Logical[0] != nil || got.Physical[0] != nil {
				t.Errorf("n=0: empty kinds are %v / %v, want nil", got.Logical[0], got.Physical[0])
			}
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Logical", got.Logical, want.Logical},
			{"PAPI", got.PAPI, want.PAPI},
			{"PAPICounters", got.PAPICounters, want.PAPICounters},
			{"Physical", got.Physical, want.Physical},
			{"LogicalSendCount", got.LogicalSendCount, want.LogicalSendCount},
			{"Overall", got.Overall, want.Overall},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("n=%d: collected %s differs from the append-built set", n, f.name)
			}
		}
		for pe := range got.PAPI {
			if len(got.Logical[pe]) != cap(got.Logical[pe]) || len(got.PAPI[pe]) != cap(got.PAPI[pe]) ||
				len(got.PAPICounters[pe]) != cap(got.PAPICounters[pe]) || len(got.Physical[pe]) != cap(got.Physical[pe]) {
				t.Errorf("n=%d PE %d: a handed-over slice is not exact-size", n, pe)
			}
		}
	}
}

// TestCountersDoNotShareCapacity: a PAPIRecordAt's Counters alias the
// Set's counter column, so each must be capped at its own length, or a
// consumer's append would write into the next record's counters. Across a
// sealed block boundary, so the column decoded at the hand-over is what is
// checked.
func TestCountersDoNotShareCapacity(t *testing.T) {
	set := collect(t, fullTrace(), 2, 2, binBlockRows+5)
	for pe := range set.PAPI {
		for i := range set.PAPI[pe] {
			if c := set.PAPIRecordAt(pe, i).Counters; len(c) != 2 || cap(c) != 2 {
				t.Fatalf("PE %d record %d: Counters len %d cap %d, want 2 and 2", pe, i, len(c), cap(c))
			}
		}
		first, second := set.PAPIRecordAt(pe, 0).Counters, set.PAPIRecordAt(pe, 1).Counters
		next := append([]int64(nil), second...)
		grown := append(first, -1)
		if !reflect.DeepEqual(second, next) || &grown[0] == &first[0] {
			t.Fatalf("PE %d: appending to one record's Counters reached the column", pe)
		}
	}
}

// TestPAPITotalsOneWalk checks the memoized all-events walk against a
// per-event sum, on the set and on a by-value copy that shares it.
func TestPAPITotalsOneWalk(t *testing.T) {
	set := collect(t, fullTrace(), 4, 2, 100)
	copied := *set
	for i, ev := range set.Config.PAPIEvents {
		want := make([]int64, set.NumPEs)
		for pe := range set.PAPI {
			for j := range set.PAPI[pe] {
				want[pe] += set.PAPIRecordAt(pe, j).Counters[i]
			}
		}
		for _, s := range []*Set{set, &copied} {
			got := s.PAPITotalsPerPE(ev)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: totals %v, want %v", ev, got, want)
			}
			got[0] = -1 // the caller owns the result
		}
	}
	if got := set.PAPITotalsPerPE(papi.BR_MSP); !reflect.DeepEqual(got, make([]int64, set.NumPEs)) {
		t.Errorf("unconfigured event: totals %v, want zeros", got)
	}
	// A Set literal has no memo to share and still answers.
	lit := &Set{NumPEs: set.NumPEs, Config: set.Config, PAPI: set.PAPI, PAPICounters: set.PAPICounters}
	if got, want := lit.PAPITotalsPerPE(papi.TOT_INS), copied.PAPITotalsPerPE(papi.TOT_INS); !reflect.DeepEqual(got, want) {
		t.Errorf("Set literal: totals %v, want %v", got, want)
	}
}

// TestPackedFieldsPanicNotWrap: record mode keeps a send's dst, msgSize
// and mailbox in 32 bits until Close. The largest value that fits comes
// back out of the Set unchanged; the next one panics at the send instead
// of wrapping into another destination. Modes that retain no record
// never pack, and keep taking any int.
func TestPackedFieldsPanicNotWrap(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("every int fits a packed field")
	}
	const fits = math.MaxInt32
	papiOnly := Config{PAPIEvents: []papi.Event{papi.TOT_INS}} // no logical record to panic first
	for _, cfg := range []Config{fullTrace(), papiOnly} {
		for _, f := range []struct {
			name                 string
			mailbox, dst, size   int
			dMailbox, dDst, dSiz int
		}{
			{"dst", 1, fits, 8, 0, 1, 0},
			{"msgSize", 1, 3, fits, 0, 0, 1},
			{"mailbox", fits, 3, 8, 1, 0, 0},
		} {
			c, err := NewCollector(cfg, machine(4, 2))
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), f.name) ||
						!strings.Contains(fmt.Sprint(r), "does not fit a packed record") {
						t.Errorf("logical=%v: %s one past MaxInt32: recovered %v, want the packed-record panic", cfg.Logical, f.name, r)
					}
				}()
				c.ForPE(0, papi.NewEngine()).LogicalSend(f.mailbox+f.dMailbox, f.dst+f.dDst, f.size+f.dSiz)
			}()
			pc := c.ForPE(1, papi.NewEngine())
			pc.LogicalSend(f.mailbox, f.dst, f.size)
			pc.Close()
			set := c.Set()
			if cfg.Logical {
				if want := (LogicalRecord{SrcNode: 0, SrcPE: 1, DstNode: f.dst / 2, DstPE: f.dst, MsgSize: f.size}); set.LogicalRecordAt(1, 0) != want {
					t.Errorf("%s at MaxInt32: logical record %+v, want %+v", f.name, set.LogicalRecordAt(1, 0), want)
				}
			}
			r := set.PAPIRecordAt(1, 0)
			if r.SrcPE != 1 || r.DstPE != f.dst || r.DstNode != f.dst/2 || r.PktSize != f.size || r.MailboxID != f.mailbox || r.NumSends != 1 {
				t.Errorf("%s at MaxInt32: PAPI record %+v", f.name, r)
			}
		}
	}

	agg, err := NewCollector(Config{Logical: true, Aggregate: true, PAPIEvents: []papi.Event{papi.TOT_INS}}, machine(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	pc := agg.ForPE(0, papi.NewEngine())
	pc.LogicalSend(fits+1, 3, fits+1)
	pc.Close()
	if got := agg.Set().Summary().MsgBytes.MaxV; got != fits+1 {
		t.Errorf("aggregate mode recorded a largest message of %d bytes, want %d", got, fits+1)
	}

	cfg := Config{PAPIRecordEvery: fits}
	if err := cfg.Validate(); err != nil {
		t.Errorf("PAPIRecordEvery MaxInt32 rejected: %v", err)
	}
	cfg.PAPIRecordEvery++
	if err := cfg.Validate(); err == nil {
		t.Error("PAPIRecordEvery MaxInt32+1 accepted: a record's send count would wrap")
	}
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestRecordModeFootprint bounds what a fully traced send costs in heap:
// while the run executes, its two rows sealed as APBF (a byte or two per
// column), and over the collector's whole life those plus the packed
// records and counters Close decodes them into (24 + 16 bytes) - not a
// packed block in flight and a copy of it at Close.
func TestRecordModeFootprint(t *testing.T) {
	const npes, perNode, n = 4, 2, 1 << 16
	seqs := make([][]send, npes)
	for pe := range seqs {
		seqs[pe] = sendSequence(pe, npes, n)
	}
	want := appendModel(npes, perNode, n)

	start := allocated()
	c, err := NewCollector(fullTrace(), machine(npes, perNode))
	if err != nil {
		t.Fatal(err)
	}
	pcs, engs := make([]*PECollector, npes), make([]*papi.Engine, npes)
	for pe, seq := range seqs {
		engs[pe] = papi.NewEngine()
		pcs[pe] = c.ForPE(pe, engs[pe])
		for _, s := range seq {
			engs[pe].Tally(&s.work)
			pcs[pe].LogicalSend(s.mailbox, s.dst, s.size)
		}
	}
	running := allocated()
	for pe, pc := range pcs {
		engs[pe].Tally(&papi.Work{Ins: 3})
		pc.OverallBreakdown(10, 20, 100)
		pc.Close()
	}
	closed := allocated()

	const sends = npes * n
	t.Logf("%.1f bytes per send before Close, %.1f over the collector's life",
		float64(running-start)/sends, float64(closed-start)/sends)
	if per := float64(running-start) / sends; per > 24 {
		t.Errorf("%.1f bytes allocated per send before Close, want <= 24", per)
	}
	if per := float64(closed-start) / sends; per > 72 {
		t.Errorf("%.1f bytes allocated per send over the collector's life, want <= 72", per)
	}
	got := c.Set()
	if !reflect.DeepEqual(got.Logical, want.Logical) || !reflect.DeepEqual(got.PAPI, want.PAPI) ||
		!reflect.DeepEqual(got.PAPICounters, want.PAPICounters) ||
		!reflect.DeepEqual(got.LogicalSendCount, want.LogicalSendCount) || !reflect.DeepEqual(got.Overall, want.Overall) {
		t.Error("the handed-over set differs from the append-built one")
	}
}

// TestSealedShardsMatchRefill: the send shards a collector seals as the
// run goes are what WriteFiles writes of a collected Set, and they must be
// the bytes a Set holding the same records as its own - built by hand, so
// sealed from its packed records at write time - writes, file for file.
// Runs of sends to one destination and mailbox let PAPIRecordEvery batch,
// and the sizes and counters need multi-byte varints.
func TestSealedShardsMatchRefill(t *testing.T) {
	const npes, perNode = 4, 2
	for _, n := range []int{0, 1, binBlockRows - 1, binBlockRows, binBlockRows + 1, 5000} {
		for _, tweak := range []struct {
			name string
			cfg  func(*Config)
		}{
			{"every-send", func(*Config) {}},
			{"PAPIRecordEvery-3", func(c *Config) { c.PAPIRecordEvery = 3 }},
			{"LogicalSample-2", func(c *Config) { c.LogicalSample = 2 }},
		} {
			for _, format := range []Format{FormatBinary, FormatCSV} {
				cfg := fullTrace()
				cfg.Format = format
				tweak.cfg(&cfg)
				c, err := NewCollector(cfg, machine(npes, perNode))
				if err != nil {
					t.Fatal(err)
				}
				for pe := 0; pe < npes; pe++ {
					eng := papi.NewEngine()
					pc := c.ForPE(pe, eng)
					for i := 0; i < n; i++ {
						eng.Tally(&papi.Work{Ins: int64(10 + (i*7919)%5000), LstIns: int64(i % 5)})
						pc.LogicalSend((i/7)%3, (pe+i/5)%npes, 8+(i*31)%300)
						if i%4 == 3 {
							pc.PhysicalSendAt(conveyor.LocalSend, 64, pe, (pe+i/5)%npes, int64(i))
						}
					}
					eng.Tally(&papi.Work{Ins: 3})
					pc.OverallBreakdown(10, 20, 100)
					pc.Close()
				}
				collected := c.Set()
				if sp := collected.memo.sealed[npes-1]; n > 0 && (sp.logical.Blocks() == 0 || sp.papi.Blocks() == 0) {
					t.Fatalf("n=%d: the collected Set holds no sealed shards", n)
				}
				byHand := NewSet(collected.Config, npes, perNode)
				for pe := 0; pe < npes; pe++ {
					byHand.Logical[pe], byHand.PAPI[pe] = slices.Clone(collected.Logical[pe]), slices.Clone(collected.PAPI[pe])
					byHand.PAPICounters[pe], byHand.Physical[pe] = slices.Clone(collected.PAPICounters[pe]), collected.Physical[pe]
				}
				byHand.LogicalSendCount, byHand.Overall = collected.LogicalSendCount, collected.Overall
				dirs := [2]string{t.TempDir(), t.TempDir()}
				for i, s := range []*Set{collected, byHand} {
					if err := s.WriteFiles(dirs[i]); err != nil {
						t.Fatal(err)
					}
				}
				entries, err := os.ReadDir(dirs[0])
				if err != nil {
					t.Fatal(err)
				}
				if again, _ := os.ReadDir(dirs[1]); len(again) != len(entries) {
					t.Fatalf("n=%d %s %s: %d files collected, %d by hand", n, tweak.name, format, len(entries), len(again))
				}
				for _, e := range entries {
					a, _ := os.ReadFile(filepath.Join(dirs[0], e.Name()))
					b, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
					if err != nil || !bytes.Equal(a, b) {
						t.Errorf("n=%d %s %s: %s differs (%d vs %d bytes, err %v)", n, tweak.name, format, e.Name(), len(a), len(b), err)
					}
				}
			}
		}
	}
}

// TestReadSetFootprint bounds what ReadSet allocates per send of a fully
// traced run read back: the packed records and the counter column a Set
// holds (8 + 16 + 16 bytes), each slice sized once from its shard, plus
// the physical records of every fourth send - no full row and no counter
// slice per record. Decoded from either encoding, the Set is the one the
// collector handed over.
func TestReadSetFootprint(t *testing.T) {
	const npes, perNode, n = 4, 2, 1 << 16
	set := collect(t, fullTrace(), npes, perNode, n)
	for _, format := range []Format{FormatCSV, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			set.Config.Format = format
			dir := t.TempDir()
			if err := set.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
			start := allocated()
			back, err := ReadSet(dir)
			per := float64(allocated()-start) / (npes * n)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.1f bytes allocated per send", per)
			if per > 64 {
				t.Errorf("ReadSet allocated %.1f bytes per send, want <= 64", per)
			}
			if !reflect.DeepEqual(back.Logical, set.Logical) || !reflect.DeepEqual(back.PAPI, set.PAPI) ||
				!reflect.DeepEqual(back.PAPICounters, set.PAPICounters) {
				t.Error("the Set read back differs from the collected one")
			}
		})
	}
}
