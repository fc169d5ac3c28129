package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"actorprof/internal/blocks"
)

func TestCostModelValidate(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*CostModel)
	}{
		{"zero value", func(c *CostModel) { *c = CostModel{} }},
		{"negative latency", func(c *CostModel) { c.NetworkLatency = -1 }},
		{"negative per-byte", func(c *CostModel) { c.LocalCopyPerByte = -5 }},
		{"free network", func(c *CostModel) { c.NetworkLatency, c.NetworkPerByte = 0, 0 }},
		{"zero instruction scale", func(c *CostModel) { c.InstructionScale = 0 }},
	}
	for _, tc := range bad {
		c := DefaultCostModel()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
		}
	}
	// Zero InstructionCycles legitimately disables the scale check.
	c := DefaultCostModel()
	c.InstructionCycles, c.InstructionScale = 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("instruction-free model rejected: %v", err)
	}
}

// TestPriceEventMatchesFormulas pins PriceEvent to the existing cost
// formulas: replay exactness depends on one canonical pricing.
func TestPriceEventMatchesFormulas(t *testing.T) {
	c := DefaultCostModel()
	cases := []struct {
		kind EventKind
		arg  int64
		want int64
	}{
		{EvNetworkPut, 64, c.NetworkTransferCost(64)},
		{EvLocalCopy, 64, c.LocalTransferCost(64)},
		{EvQuiet, 3, c.QuietLatency},
		{EvInstr, 1000, c.InstructionCost(1000)},
		{EvIngest, 5, 5 * c.ItemIngestCycles},
		{EvDelay, 777, 777},
		{EvRaw, 123, 123},
		{EvBarrier, 0, 0},
		{EvHandlerStart, 42, 0},
	}
	for _, tc := range cases {
		if got := c.PriceEvent(tc.kind, tc.arg); got != tc.want {
			t.Errorf("PriceEvent(%v, %d) = %d, want %d", tc.kind, tc.arg, got, tc.want)
		}
	}
}

func TestEventKindCharged(t *testing.T) {
	charged := map[EventKind]bool{
		EvNetworkPut: true, EvLocalCopy: true, EvQuiet: true, EvInstr: true,
		EvIngest: true, EvDelay: true, EvRaw: true,
		EvBarrier: false, EvFinishStart: false, EvFinishEnd: false,
		EvMainPause: false, EvMainResume: false, EvHandlerStart: false, EvHandlerEnd: false,
	}
	if len(charged) != int(NumEventKinds) {
		t.Fatalf("test covers %d kinds, NumEventKinds is %d", len(charged), NumEventKinds)
	}
	for k, want := range charged {
		if got := k.Charged(); got != want {
			t.Errorf("%v.Charged() = %v, want %v", k, got, want)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	rec := NewScheduleRecorder(Machine{NumPEs: 2, PEsPerNode: 2}, Virtual, DefaultCostModel())
	rec.PE(0).Skew = 7
	for pe := 0; pe < 2; pe++ {
		l := rec.PE(pe)
		l.Append(EvFinishStart, 0)
		l.Append(EvNetworkPut, 128)
		l.Append(EvHandlerStart, ActorID(1, 2))
		l.Append(EvInstr, 50)
		l.Append(EvHandlerEnd, ActorID(1, 2))
		l.Append(EvBarrier, 0)
		l.Append(EvFinishEnd, 0)
	}
	s := rec.Schedule()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
	if got.PEs[0].Skew != 7 || len(got.PEs[1].Events) != len(s.PEs[1].Events) {
		t.Fatalf("round trip lost data: %+v", got.PEs)
	}
	for i, ev := range got.PEs[0].Events {
		if ev != s.PEs[0].Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, ev, s.PEs[0].Events[i])
		}
	}
}

func TestScheduleValidateRejects(t *testing.T) {
	mk := func() *Schedule {
		rec := NewScheduleRecorder(Machine{NumPEs: 2, PEsPerNode: 2}, Virtual, DefaultCostModel())
		rec.PE(0).Append(EvBarrier, 0)
		rec.PE(1).Append(EvBarrier, 0)
		return rec.Schedule()
	}
	cases := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"missing PE log", func(s *Schedule) { s.PEs = s.PEs[:1] }},
		{"nil PE log", func(s *Schedule) { s.PEs[1] = nil }},
		{"negative skew", func(s *Schedule) { s.PEs[0].Skew = -1 }},
		{"unknown kind", func(s *Schedule) { s.PEs[0].Events[0].Kind = NumEventKinds }},
		{"mismatched barriers", func(s *Schedule) { s.PEs[0].Events = nil }},
		{"bad cost", func(s *Schedule) { s.Cost = CostModel{} }},
		{"bad machine", func(s *Schedule) { s.Machine.NumPEs = 0 }},
	}
	for _, tc := range cases {
		s := mk()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the schedule", tc.name)
		}
	}
}

func TestEventJSONRejectsGarbage(t *testing.T) {
	for _, raw := range []string{`[1]`, `[1,2,3]`, `["x",2]`, `[99,0]`, `[-1,0]`, `{}`} {
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err == nil {
			t.Errorf("Unmarshal(%s) accepted", raw)
		}
	}
}

func TestActorIDParts(t *testing.T) {
	for _, tc := range []struct{ ord, mb int }{{0, 0}, {1, 2}, {300, 255}, {7, 9}} {
		id := ActorID(tc.ord, tc.mb)
		ord, mb := ActorIDParts(id)
		if ord != tc.ord || mb != tc.mb {
			t.Errorf("ActorIDParts(ActorID(%d, %d)) = (%d, %d)", tc.ord, tc.mb, ord, mb)
		}
	}
}

// recordedEvents is a deterministic event stream with every kind in it.
func recordedEvents(pe, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: EventKind((i + pe) % int(NumEventKinds)), Arg: int64(i*31 + pe)}
	}
	return evs
}

// TestPELogBlocksMatchAppend: a log recorded through Append, which lands
// events in blocks, is the log plain append builds, around every block
// boundary; Events() and Validate() agree before and after the schedule
// is sealed, and sealing twice changes nothing.
func TestPELogBlocksMatchAppend(t *testing.T) {
	m := Machine{NumPEs: 2, PEsPerNode: 2}
	for _, n := range []int{0, 1, blocks.Len - 1, blocks.Len, blocks.Len + 1, 3*blocks.Len + 7} {
		rec := NewScheduleRecorder(m, Virtual, DefaultCostModel())
		want := make([][]Event, m.NumPEs)
		for pe := range want {
			for _, e := range recordedEvents(pe, n) {
				rec.PE(pe).Append(e.Kind, e.Arg)
				want[pe] = append(want[pe], e)
			}
		}
		// Before the hand-over: nothing in Events yet, everything counted.
		unsealed := &rec.s
		if got := unsealed.Events(); got != 2*n {
			t.Fatalf("n=%d: Events() = %d before Schedule(), want %d", n, got, 2*n)
		}
		if err := unsealed.Validate(); err != nil {
			t.Fatalf("n=%d: Validate before Schedule(): %v", n, err)
		}

		s := rec.Schedule()
		for pe, l := range s.PEs {
			if !reflect.DeepEqual(l.Events, want[pe]) {
				t.Fatalf("n=%d PE %d: sealed log differs from the appended one (%d vs %d events)", n, pe, len(l.Events), len(want[pe]))
			}
			if len(l.Events) != cap(l.Events) {
				t.Errorf("n=%d PE %d: sealed log has spare capacity (%d of %d)", n, pe, len(l.Events), cap(l.Events))
			}
		}
		if got := s.Events(); got != 2*n {
			t.Fatalf("n=%d: Events() = %d after Schedule(), want %d", n, got, 2*n)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("n=%d: Validate after Schedule(): %v", n, err)
		}

		var first *Event
		if n > 0 {
			first = &s.PEs[0].Events[0]
		}
		again := rec.Schedule()
		if again != s || !reflect.DeepEqual(again.PEs[1].Events, want[1]) || (n > 0 && &again.PEs[0].Events[0] != first) {
			t.Fatalf("n=%d: a second Schedule() changed the schedule", n)
		}

		// Events appended after a seal join the log at the next one.
		rec.PE(1).Append(EvRaw, 99)
		if got := rec.Schedule().PEs[1].Events; !reflect.DeepEqual(got, append(want[1], Event{EvRaw, 99})) {
			t.Fatalf("n=%d: an event appended after Schedule() was lost or misplaced", n)
		}
	}
}

// An unknown kind or a missing barrier is caught in an unsealed log too.
func TestValidateSeesUnsealedEvents(t *testing.T) {
	rec := NewScheduleRecorder(Machine{NumPEs: 2, PEsPerNode: 2}, Virtual, DefaultCostModel())
	rec.PE(0).Append(EvBarrier, 0)
	if err := rec.s.Validate(); err == nil {
		t.Error("Validate accepted an unsealed schedule with mismatched barriers")
	}
	rec.PE(1).Append(EvBarrier, 0)
	rec.PE(1).Append(NumEventKinds, 0)
	if err := rec.s.Validate(); err == nil {
		t.Error("Validate accepted an unsealed schedule with an unknown event kind")
	}
}

// TestScheduleJSONGolden pins the bytes of schedule.json for a recorded
// schedule: how events are buffered during the run must not show.
func TestScheduleJSONGolden(t *testing.T) {
	rec := NewScheduleRecorder(Machine{NumPEs: 2, PEsPerNode: 1}, Virtual, CostModel{NetworkLatency: 5, InstructionCycles: 1, InstructionScale: 2})
	rec.PE(1).Skew = 25
	rec.PE(0).Append(EvNetworkPut, 128)
	rec.PE(0).Append(EvHandlerStart, BatchActorID(1, 2, 3))
	rec.PE(0).Append(EvBarrier, 0)
	rec.PE(1).Append(EvBarrier, 0)
	got, err := json.Marshal(rec.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"machine":{"NumPEs":2,"PEsPerNode":1},"timing":0,` +
		`"cost":{"NetworkLatency":5,"NetworkPerByte":0,"QuietLatency":0,"SignalLatency":0,"LocalCopyLatency":0,` +
		`"LocalCopyPerByte":0,"InstructionCycles":1,"InstructionScale":2,"PollCycles":0,"ItemIngestCycles":0},` +
		`"pes":[{"events":[[0,128],[12,12884902146],[7,0]]},{"skew":25,"events":[[7,0]]}]}`
	if string(got) != want {
		t.Errorf("schedule.json changed:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkScheduleAppend is the recorder's share of a clock charge: one
// event appended to a PE's log, sealed every million events so that the
// hand-over is part of the figure.
func BenchmarkScheduleAppend(b *testing.B) {
	m := Machine{NumPEs: 1, PEsPerNode: 1}
	rec := NewScheduleRecorder(m, Virtual, DefaultCostModel())
	l := rec.PE(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<20) == 0 && i > 0 {
			rec.Schedule()
			rec = NewScheduleRecorder(m, Virtual, DefaultCostModel())
			l = rec.PE(0)
		}
		l.Append(EvInstr, int64(i))
	}
	if n := rec.Schedule().Events(); n == 0 && b.N > 0 {
		b.Fatal("no events recorded")
	}
}

// TestInstrRunPacksOrPanics pins the EvInstr run encoding at the edges
// of its two fields: what fits round-trips, a run of one is the plain
// count, and what does not fit panics instead of wrapping into the
// other field (a silently different price).
func TestInstrRunPacksOrPanics(t *testing.T) {
	const maxIns, maxRun = int64(1)<<32 - 1, int64(math.MaxInt32)
	for _, tc := range [][2]int64{{53, 1}, {53, 2}, {0, 7}, {maxIns, 1}, {maxIns, maxRun}, {1, maxRun}} {
		arg := InstrRun(tc[0], tc[1])
		if ins, n := InstrRunParts(arg); ins != tc[0] || n != tc[1] {
			t.Errorf("InstrRunParts(InstrRun(%d, %d)) = (%d, %d)", tc[0], tc[1], ins, n)
		}
		if tc[1] == 1 && arg != tc[0] {
			t.Errorf("InstrRun(%d, 1) = %d, want the plain count", tc[0], arg)
		}
	}
	for _, tc := range [][2]int64{{maxIns + 1, 1}, {maxIns + 1, 2}, {53, maxRun + 1}, {53, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InstrRun(%d, %d) did not panic", tc[0], tc[1])
				}
			}()
			InstrRun(tc[0], tc[1])
		}()
	}
}

// TestRunPricedAsItsMessages: under a skew and a price that both round,
// a run costs what its messages would have cost one by one, in the
// model and on the clock.
func TestRunPricedAsItsMessages(t *testing.T) {
	c := DefaultCostModel() // 53 instructions at IPC 2: 26 cycles, not 26.5
	if got, want := c.PriceEvent(EvInstr, InstrRun(53, 10)), c.InstructionCost(53); got != want {
		t.Errorf("PriceEvent of a run of 10 = %d, want one message's %d", got, want)
	}
	if c.InstructionCost(530) == 10*c.InstructionCost(53) {
		t.Fatal("the price divides evenly; the case shows nothing")
	}
	one, run := NewClock(Virtual), NewClock(Virtual)
	one.SetSkewPercent(7)
	run.SetSkewPercent(7)
	for i := 0; i < 10; i++ {
		one.Charge(c.InstructionCost(53))
	}
	run.ChargeRun(c.InstructionCost(53), 10)
	if one.Now() != run.Now() || one.Now() == SkewCharge(10*c.InstructionCost(53), 7) {
		t.Errorf("ten charges reach %d, one run of ten %d (skewing the sum would give %d)",
			one.Now(), run.Now(), SkewCharge(10*c.InstructionCost(53), 7))
	}
}
