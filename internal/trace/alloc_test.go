package trace

import (
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// The traced path is under the same rule as the untraced one (DESIGN.md
// §8): recording a message allocates nothing at steady state. Modes that
// retain no records read counters into a per-PE scratch; record mode
// pays one block per blocks.Len records and one arena chunk per
// arenaChunk counters. testing.AllocsPerRun counts process-global
// allocations and reports whole numbers, so each run is a batch of sends
// on one PE.

const allocBatch = 1000

// sendBatch drives allocBatch sends, every one to a new destination (so
// that every send flushes a PAPI record whatever PAPIRecordEvery is) and
// every fourth with its buffer transfer.
func sendBatch(pc *PECollector, eng *papi.Engine, npes int) {
	for i := 0; i < allocBatch; i++ {
		eng.Tally(&papi.Work{Ins: 7, LstIns: 2})
		pc.LogicalSend(0, i%npes, 16)
		if i%4 == 3 {
			pc.PhysicalSendAt(conveyor.LocalSend, 1024, 0, i%npes, int64(i))
		}
	}
}

func TestUnretainedSendZeroAlloc(t *testing.T) {
	const npes = 8
	aggregate := Config{
		Logical: true, Physical: true, Overall: true, Aggregate: true,
		PAPIEvents: []papi.Event{papi.TOT_INS}, PAPIRecordEvery: 256,
	}
	for _, tc := range []struct {
		name string
		new  func() (*Collector, error)
	}{
		{"aggregate", func() (*Collector, error) { return NewCollector(aggregate, machine(npes, 4)) }},
		{"streaming", func() (*Collector, error) {
			return NewStreamingCollector(fullTrace(), machine(npes, 4), t.TempDir())
		}},
	} {
		c, err := tc.new()
		if err != nil {
			t.Fatal(err)
		}
		eng := papi.NewEngine()
		pc := c.ForPE(0, eng)
		sendBatch(pc, eng, npes) // first use sizes the aggregate rows and stream scratch
		if allocs := testing.AllocsPerRun(10, func() { sendBatch(pc, eng, npes) }); allocs != 0 {
			t.Errorf("%s: %d sends allocated %.0f times, want 0", tc.name, allocBatch, allocs)
		}
		pc.Close()
		if c.Streaming() {
			if err := c.Finalize(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFullTraceSendAmortisedAlloc(t *testing.T) {
	const npes = 8
	c, err := NewCollector(fullTrace(), machine(npes, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng := papi.NewEngine()
	pc := c.ForPE(0, eng)
	sendBatch(pc, eng, npes)
	perBatch := testing.AllocsPerRun(50, func() { sendBatch(pc, eng, npes) })
	if perSend := perBatch / allocBatch; perSend >= 0.01 {
		t.Errorf("full trace: %.4f allocations per send (%.0f per %d), want < 0.01", perSend, perBatch, allocBatch)
	}
	pc.Close()
	if got := len(c.Set().Logical[0]); got != 52*allocBatch {
		t.Errorf("kept %d logical records, want %d", got, 52*allocBatch)
	}
}

// A segment measurement keeps its counter baseline in the token, so a
// segment that has been seen before costs no allocation.
func TestSegmentZeroAlloc(t *testing.T) {
	c, err := NewCollector(fullTrace(), machine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng := papi.NewEngine()
	pc := c.ForPE(0, eng)
	measure := func() {
		tok := pc.SegmentEnter("relax", 100)
		eng.Tally(&papi.Work{Ins: 5})
		pc.SegmentExit(tok, 160)
	}
	measure()
	if allocs := testing.AllocsPerRun(100, measure); allocs != 0 {
		t.Errorf("SegmentEnter/SegmentExit allocated %.0f times per measurement, want 0", allocs)
	}
	pc.Close()
	if seg := c.Set().Segments[0]; len(seg) != 1 || seg[0].Count != 102 || seg[0].Counters[0] != 5*102 {
		t.Errorf("segments = %+v, want one record of 102 executions and 510 instructions", seg)
	}
}
