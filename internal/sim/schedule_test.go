package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
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

// expandRuns writes every instruction run as its messages, one event each:
// the sequence the charges were appended in.
func expandRuns(evs []Event) []Event {
	var out []Event
	for _, e := range evs {
		ins, n := int64(0), int64(1)
		if e.Kind == EvInstr {
			ins, n = InstrRunParts(e.Arg)
			e.Arg = ins
		}
		for ; n > 0; n-- {
			out = append(out, e)
		}
	}
	return out
}

// TestAppendMergesOnlyAdjacentEqualInstr: Append folds an EvInstr into
// the EvInstr right before it when both charge the same instructions per
// message, and into nothing else - not across a marker or any other
// kind, a different count, a seal, or past the run-length field - and
// what was appended can be read back message for message.
func TestAppendMergesOnlyAdjacentEqualInstr(t *testing.T) {
	m := Machine{NumPEs: 1, PEsPerNode: 1}
	rec := NewScheduleRecorder(m, Virtual, DefaultCostModel())
	l := rec.PE(0)
	for i := 0; i < 3; i++ {
		l.Append(EvInstr, 53)
	}
	l.Append(EvMainPause, 0)
	l.Append(EvInstr, 53) // after a marker
	l.Append(EvInstr, 7)  // another count
	l.Append(EvInstr, InstrRun(7, 4))
	l.Append(EvLocalCopy, 64)
	l.Append(EvInstr, InstrRun(7, 2)) // after another charged kind
	l.Append(EvInstr, InstrRun(7, 3))
	want := []Event{
		{EvInstr, InstrRun(53, 3)}, {EvMainPause, 0}, {EvInstr, 53}, {EvInstr, InstrRun(7, 5)},
		{EvLocalCopy, 64}, {EvInstr, InstrRun(7, 5)},
	}
	if got := rec.Schedule().PEs[0].Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed log\n got %v\nwant %v", got, want)
	}
	// The sealed run is closed: the next charge starts an event.
	l.Append(EvInstr, 7)
	l.Append(EvInstr, 7)
	want = append(want, Event{EvInstr, InstrRun(7, 2)})
	if got := rec.Schedule().PEs[0].Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("log after a second seal\n got %v\nwant %v", got, want)
	}

	// A run is full at MaxInt32 messages; the charge that does not fit
	// starts the next event instead of panicking in InstrRun.
	full := NewScheduleRecorder(m, Virtual, DefaultCostModel())
	l = full.PE(0)
	l.Append(EvInstr, InstrRun(9, math.MaxInt32-1))
	l.Append(EvInstr, 9)
	l.Append(EvInstr, 9)
	l.Append(EvInstr, InstrRun(9, math.MaxInt32))
	want = []Event{{EvInstr, InstrRun(9, math.MaxInt32)}, {EvInstr, 9}, {EvInstr, InstrRun(9, math.MaxInt32)}}
	if got := full.Schedule().PEs[0].Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("log around a full run\n got %v\nwant %v", got, want)
	}

	// Seeded appends, long enough for merges to meet block boundaries:
	// expanding the log gives back the appended sequence.
	rng := rand.New(rand.NewSource(22))
	long := NewScheduleRecorder(m, Virtual, DefaultCostModel())
	l = long.PE(0)
	var appended []Event
	for len(appended) < 6*blocks.Len {
		if rng.Intn(4) == 0 {
			e := Event{EventKind(rng.Intn(int(NumEventKinds))), int64(rng.Intn(100))}
			if e.Kind != EvInstr {
				l.Append(e.Kind, e.Arg)
				appended = append(appended, e)
			}
			continue
		}
		ins := []int64{7, 53, 120}[rng.Intn(3)]
		for n := 1 + rng.Intn(300); n > 0; n-- {
			l.Append(EvInstr, ins)
			appended = append(appended, Event{EvInstr, ins})
		}
	}
	merged := long.Schedule().PEs[0].Events
	if len(merged) >= len(appended)/10 {
		t.Errorf("%d appended charges left %d events: runs did not form", len(appended), len(merged))
	}
	if got := expandRuns(merged); !reflect.DeepEqual(got, appended) {
		t.Errorf("expanding the merged log does not give back the %d appended events", len(appended))
	}

	// A schedule.json from before runs were merged reads as it was
	// written: decoding is not Append.
	const old = `{"machine":{"NumPEs":1,"PEsPerNode":1},"timing":0,` +
		`"cost":{"NetworkLatency":5,"NetworkPerByte":0,"QuietLatency":0,"SignalLatency":0,"LocalCopyLatency":0,` +
		`"LocalCopyPerByte":0,"InstructionCycles":1,"InstructionScale":2,"PollCycles":0,"ItemIngestCycles":0},` +
		`"pes":[{"events":[[8,0],[3,53],[3,53],[3,8589934645],[3,53],[9,0]]}]}`
	var s Schedule
	if err := json.Unmarshal([]byte(old), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("unmerged schedule.json rejected: %v", err)
	}
	if again, err := json.Marshal(&s); err != nil || string(again) != old || s.Events() != 6 {
		t.Errorf("unmerged schedule.json did not survive a round trip (%d events, %v):\n%s", s.Events(), err, again)
	}
}

// TestValidateRejectsNegativeCharge: no run records a negative charge,
// and the two what-if engines would price one differently (Clock.ChargeRun
// ignores it, Project's sum does not), so a schedule holding one is
// refused, naming the PE and the event, sealed or not.
func TestValidateRejectsNegativeCharge(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		rec := NewScheduleRecorder(Machine{NumPEs: 2, PEsPerNode: 2}, Virtual, DefaultCostModel())
		rec.PE(1).Append(EvFinishStart, 0)
		rec.PE(1).Append(EvRaw, 100)
		rec.PE(1).Append(k, -40)
		rec.PE(0).Append(k, 0) // a barrier is on every PE
		for _, s := range []*Schedule{&rec.s, rec.Schedule()} {
			err := s.Validate()
			if !k.Charged() {
				if err != nil {
					t.Errorf("%v: a marker's argument is not a charge, got %v", k, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "PE 1 event 2") {
				t.Errorf("%v -40: Validate = %v, want an error naming PE 1 event 2", k, err)
			}
		}
	}
	// An instruction run whose length bits are negative is a negative Arg.
	s := &Schedule{Machine: Machine{NumPEs: 1, PEsPerNode: 1}, Cost: DefaultCostModel(),
		PEs: []*PELog{{Events: []Event{{EvInstr, -1<<32 | 53}}}}}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted an instruction run of negative length")
	}
}
