package papi

import (
	"testing"
	"testing/quick"
)

func TestEventNamesRoundTrip(t *testing.T) {
	for i := 0; i < NumEvents; i++ {
		ev := Event(i)
		back, err := EventByName(ev.String())
		if err != nil {
			t.Fatalf("EventByName(%s): %v", ev, err)
		}
		if back != ev {
			t.Fatalf("round trip %v -> %v", ev, back)
		}
	}
	if _, err := EventByName("PAPI_NOPE"); err == nil {
		t.Fatal("expected error for unknown event")
	}
	if len(EventNames()) != NumEvents {
		t.Fatalf("EventNames returned %d names", len(EventNames()))
	}
}

func TestEngineTallyAndRead(t *testing.T) {
	e := NewEngine()
	e.Tally(&Work{Ins: 100, LstIns: 30, L1DCM: 5, Cyc: 60})
	e.Tally(&Work{Ins: 50, BrMsp: 2})
	if got := e.Read(TOT_INS); got != 150 {
		t.Errorf("TOT_INS = %d, want 150", got)
	}
	if got := e.Read(LST_INS); got != 30 {
		t.Errorf("LST_INS = %d, want 30", got)
	}
	if got := e.Read(BR_MSP); got != 2 {
		t.Errorf("BR_MSP = %d, want 2", got)
	}
	e.Add(VEC_INS, 7)
	if got := e.Read(VEC_INS); got != 7 {
		t.Errorf("VEC_INS = %d, want 7", got)
	}
}

func TestEngineRejectsBadEvent(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid event")
		}
	}()
	e.Read(Event(99))
}

func TestWorkAddScale(t *testing.T) {
	w := Work{Ins: 10, LstIns: 3}.Add(Work{Ins: 5, Cyc: 2})
	if w.Ins != 15 || w.LstIns != 3 || w.Cyc != 2 {
		t.Fatalf("Add: %+v", w)
	}
	s := Work{Ins: 4, L1DCM: 1}.Scale(3)
	if s.Ins != 12 || s.L1DCM != 3 {
		t.Fatalf("Scale: %+v", s)
	}
}

func TestWorkAddCommutativeProperty(t *testing.T) {
	f := func(a, b int32) bool {
		w1 := Work{Ins: int64(a), Cyc: int64(b)}
		w2 := Work{Ins: int64(b), LstIns: int64(a)}
		return w1.Add(w2) == w2.Add(w1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventSetLimit(t *testing.T) {
	e := NewEngine()
	if _, err := NewEventSet(e, TOT_INS, LST_INS, L1_DCM, BR_MSP); err != nil {
		t.Fatalf("4 events must be allowed (PAPI limit): %v", err)
	}
	if _, err := NewEventSet(e, TOT_INS, LST_INS, L1_DCM, BR_MSP, TLB_DM); err == nil {
		t.Fatal("5 events must exceed the PAPI limit")
	}
	if _, err := NewEventSet(e); err == nil {
		t.Fatal("empty event set must fail")
	}
	if _, err := NewEventSet(e, TOT_INS, TOT_INS); err == nil {
		t.Fatal("duplicate events must fail")
	}
	if _, err := NewEventSet(e, Event(42)); err == nil {
		t.Fatal("invalid event must fail")
	}
}

func TestEventSetRegionDeltas(t *testing.T) {
	e := NewEngine()
	s, err := NewEventSet(e, TOT_INS, LST_INS)
	if err != nil {
		t.Fatal(err)
	}
	e.Tally(&Work{Ins: 1000}) // before Start: excluded
	s.Start()
	e.Tally(&Work{Ins: 10, LstIns: 4})
	e.Tally(&Work{Ins: 20})
	mid := s.Peek()
	if mid[0] != 30 || mid[1] != 4 {
		t.Fatalf("Peek = %v, want [30 4]", mid)
	}
	got := s.Stop()
	if got[0] != 30 || got[1] != 4 {
		t.Fatalf("Stop = %v, want [30 4]", got)
	}
	// Second region starts fresh.
	s.Start()
	e.Tally(&Work{Ins: 5})
	if got := s.Stop(); got[0] != 5 {
		t.Fatalf("second region = %v, want [5 ...]", got)
	}
}

// The into-buffer reads are what the collector's send path uses: same
// deltas as Peek/Stop, into the caller's memory, without allocating.
func TestEventSetIntoBuffer(t *testing.T) {
	e := NewEngine()
	s, _ := NewEventSet(e, TOT_INS, LST_INS)
	buf := make([]int64, 2)
	s.Start()
	e.Tally(&Work{Ins: 10, LstIns: 4})
	if s.PeekInto(buf); buf[0] != 10 || buf[1] != 4 || !s.Running() {
		t.Fatalf("PeekInto = %v (running %v), want [10 4] and still running", buf, s.Running())
	}
	e.Tally(&Work{Ins: 1})
	if s.StopInto(buf); buf[0] != 11 || buf[1] != 4 || s.Running() {
		t.Fatalf("StopInto = %v (running %v), want [11 4] and stopped", buf, s.Running())
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Start()
		e.Tally(&Work{Ins: 3})
		s.StopInto(buf)
	})
	if allocs != 0 || buf[0] != 3 {
		t.Errorf("Start/StopInto allocated %.0f times and read %v, want 0 and [3 0]", allocs, buf)
	}
	defer func() {
		if recover() == nil {
			t.Error("a buffer of the wrong length should panic")
		}
	}()
	s.Start()
	s.StopInto(make([]int64, 1))
}

func TestEventSetStateMachine(t *testing.T) {
	e := NewEngine()
	s, _ := NewEventSet(e, TOT_INS)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Stop before Start", func() { s.Stop() })
	mustPanic("Peek before Start", func() { s.Peek() })
	mustPanic("StopInto before Start", func() { s.StopInto(make([]int64, 1)) })
	s.Start()
	mustPanic("double Start", func() { s.Start() })
	if !s.Running() {
		t.Error("Running should be true after Start")
	}
	s.Stop()
	if s.Running() {
		t.Error("Running should be false after Stop")
	}
}

func TestEventSetEventsCopy(t *testing.T) {
	e := NewEngine()
	s, _ := NewEventSet(e, TOT_INS, LST_INS)
	evs := s.Events()
	evs[0] = BR_MSP // mutating the copy must not affect the set
	if s.Events()[0] != TOT_INS {
		t.Fatal("Events leaked internal state")
	}
}

func TestCostModelProportionality(t *testing.T) {
	m := DefaultCostModel()
	small := m.SendWork(8)
	large := m.SendWork(64)
	if large.Ins <= small.Ins {
		t.Error("larger payloads must cost more instructions")
	}
	if small.Ins <= 0 || m.HandlerWork(8).Ins <= 0 {
		t.Error("base costs must be positive")
	}
	// The engine-level invariant the figures rely on: N sends tally
	// exactly N times the per-send work.
	e := NewEngine()
	send := m.SendWork(8)
	for i := 0; i < 10; i++ {
		e.Tally(&send)
	}
	if got, want := e.Read(TOT_INS), 10*m.SendWork(8).Ins; got != want {
		t.Fatalf("10 sends tallied %d ins, want %d", got, want)
	}
}
