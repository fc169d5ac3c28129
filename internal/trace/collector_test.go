package trace

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
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
// collector did before it had blocks: plain append, one fresh Counters
// slice per record. Under fullTrace every send is one logical and one
// PAPI record, and the work after the last send is the residual record.
func appendModel(npes, perNode, n int) *Set {
	cfg := fullTrace()
	want := NewSet(cfg, npes, perNode)
	for pe := 0; pe < npes; pe++ {
		node := pe / perNode
		for _, s := range sendSequence(pe, npes, n) {
			want.Logical[pe] = append(want.Logical[pe], LogicalRecord{
				SrcNode: node, SrcPE: pe, DstNode: s.dst / perNode, DstPE: s.dst, MsgSize: s.size,
			})
			want.PAPI[pe] = append(want.PAPI[pe], PAPIRecord{
				SrcNode: node, SrcPE: pe, DstNode: s.dst / perNode, DstPE: s.dst,
				PktSize: s.size, MailboxID: s.mailbox, NumSends: 1,
				Counters: []int64{s.work.Ins, s.work.LstIns},
			})
			if s.physical {
				want.Physical[pe] = append(want.Physical[pe], s.physicalRecord(pe))
			}
		}
		want.PAPI[pe] = append(want.PAPI[pe], PAPIRecord{
			SrcNode: node, SrcPE: pe, DstNode: node, DstPE: pe,
			MailboxID: -1, Counters: []int64{3, 0},
		})
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
	for _, n := range []int{0, 1, blocks.Len - 1, blocks.Len, blocks.Len + 1, 3*blocks.Len + 7} {
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
				len(got.Physical[pe]) != cap(got.Physical[pe]) {
				t.Errorf("n=%d PE %d: a handed-over slice is not exact-size", n, pe)
			}
		}
	}
}

// TestCountersDoNotShareCapacity: Counters alias arena memory, so each
// must be capped at its own length, or a consumer's append would write
// into the next record's counters.
func TestCountersDoNotShareCapacity(t *testing.T) {
	set := collect(t, fullTrace(), 2, 2, arenaChunk+5)
	for pe, recs := range set.PAPI {
		for i := range recs {
			if c := recs[i].Counters; len(c) != 2 || cap(c) != 2 {
				t.Fatalf("PE %d record %d: Counters len %d cap %d, want 2 and 2", pe, i, len(c), cap(c))
			}
		}
		next := append([]int64(nil), recs[1].Counters...)
		grown := append(recs[0].Counters, -1)
		if !reflect.DeepEqual(recs[1].Counters, next) || &grown[0] == &recs[0].Counters[0] {
			t.Fatalf("PE %d: appending to one record's Counters reached the arena", pe)
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
		for pe, recs := range set.PAPI {
			for _, r := range recs {
				want[pe] += r.Counters[i]
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
	lit := &Set{NumPEs: set.NumPEs, Config: set.Config, PAPI: set.PAPI}
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
				if want := (LogicalRecord{SrcNode: 0, SrcPE: 1, DstNode: f.dst / 2, DstPE: f.dst, MsgSize: f.size}); set.Logical[1][0] != want {
					t.Errorf("%s at MaxInt32: logical record %+v, want %+v", f.name, set.Logical[1][0], want)
				}
			}
			r := set.PAPI[1][0]
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

// TestRecordModeFootprint bounds what a fully traced send costs in heap:
// while the run executes, its two packed records and its counter slot
// (8 + 16 + 16 bytes), and over the collector's whole life those plus
// the Set's own two records (40 + 80) - not a second copy of either.
func TestRecordModeFootprint(t *testing.T) {
	const npes, perNode, n = 4, 2, 1 << 16
	seqs := make([][]send, npes)
	for pe := range seqs {
		seqs[pe] = sendSequence(pe, npes, n)
	}
	want := appendModel(npes, perNode, n)
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}

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
	if per := float64(running-start) / sends; per > 48 {
		t.Errorf("%.1f bytes allocated per send before Close, want <= 48", per)
	}
	if per := float64(closed-start) / sends; per > 200 {
		t.Errorf("%.1f bytes allocated per send over the collector's life, want <= 200", per)
	}
	got := c.Set()
	if !reflect.DeepEqual(got.Logical, want.Logical) || !reflect.DeepEqual(got.PAPI, want.PAPI) ||
		!reflect.DeepEqual(got.LogicalSendCount, want.LogicalSendCount) || !reflect.DeepEqual(got.Overall, want.Overall) {
		t.Error("the handed-over set differs from the append-built one")
	}
}
