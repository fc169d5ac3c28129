package harness_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/fault"
	"actorprof/internal/fault/harness"
	"actorprof/internal/sim"
)

// counterApp is a minimal chaos-testable app: every PE sends a known
// arithmetic series to every PE, handlers accumulate, and the oracle is
// the closed-form sum. Handlers send nothing, so the deterministic-site
// schedule is fixed by program structure - the property the replay
// tests below rely on.
func counterApp() harness.App {
	const msgsPerPeer = 40
	return harness.App{
		Name:        "counter",
		BufferItems: 8,
		Run: func(rt *actor.Runtime) (any, error) {
			pe := rt.PE()
			npes := pe.NumPEs()
			var sum int64
			sel, err := actor.NewActor(rt, actor.Int64Codec())
			if err != nil {
				return nil, err
			}
			sel.Process(0, func(v int64, srcPE int) { sum += v })
			rt.Finish(func() {
				sel.Start()
				for dst := 0; dst < npes; dst++ {
					for i := 0; i < msgsPerPeer; i++ {
						sel.Send(0, int64(pe.Rank()*msgsPerPeer+i), dst)
					}
				}
				sel.Done(0)
			})
			return sum, nil
		},
		Check: func(m sim.Machine, perPE []any) error {
			var want int64
			for src := 0; src < m.NumPEs; src++ {
				for i := 0; i < msgsPerPeer; i++ {
					want += int64(src*msgsPerPeer + i)
				}
			}
			for pe, r := range perPE {
				got, ok := r.(int64)
				if !ok {
					return fmt.Errorf("PE %d returned %T, want int64", pe, r)
				}
				if got != want {
					return fmt.Errorf("PE %d accumulated %d, want %d", pe, got, want)
				}
			}
			return nil
		},
	}
}

// brokenApp fails its oracle unconditionally, for failure-path tests.
func brokenApp() harness.App {
	app := counterApp()
	app.Name = "broken"
	app.Check = func(m sim.Machine, perPE []any) error {
		return errors.New("oracle violated (intentional)")
	}
	return app
}

func TestRunCellPassesUnderEveryPlan(t *testing.T) {
	for _, m := range harness.DefaultMachines() {
		for _, name := range fault.PlanNames() {
			plan, err := fault.NamedPlan(name, harness.DeriveSeed(0xc0ffee, "counter", name, m))
			if err != nil {
				t.Fatal(err)
			}
			cell := harness.Cell{App: counterApp(), Machine: m, Plan: plan}
			t.Run(cell.Spec().String(), func(t *testing.T) {
				if _, err := harness.Run(cell); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRunReplaysEqualValues is the replay guarantee: the same cell run
// twice records schedules with equal values (ValuesDiff). Single-node
// machine - on a mesh, endgame cut points on forwarded channels are
// scheduling-dependent and only the oracle applies.
func TestRunReplaysEqualValues(t *testing.T) {
	m := sim.Machine{NumPEs: 4, PEsPerNode: 4}
	for _, name := range []string{"stragglers", "delayed-transfers", "tiny-buffers", "chaos"} {
		plan, err := fault.NamedPlan(name, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		cell := harness.Cell{App: counterApp(), Machine: m, Plan: plan}
		a, errA := harness.Run(cell)
		b, errB := harness.Run(cell)
		if errA != nil || errB != nil {
			t.Fatalf("plan %s: runs failed: %v / %v", name, errA, errB)
		}
		if d := harness.ValuesDiff(a, b); d != "" {
			t.Fatalf("plan %s: replay diverged: %s", name, d)
		}
		if name != "tiny-buffers" && !perturbed(a) {
			t.Fatalf("plan %s recorded no delay charge and no skew; the hooks are not firing", name)
		}
	}
}

// perturbed reports whether a schedule carries a fault plan's mark: an
// injected delay charge or a skewed PE.
func perturbed(s *sim.Schedule) bool {
	for _, l := range s.PEs {
		if l.Skew != 0 {
			return true
		}
		c := l.Walk(new(sim.Block))
		for evs := c.Next(); evs != nil; evs = c.Next() {
			for _, e := range evs {
				if e.Kind == sim.EvDelay {
					return true
				}
			}
		}
	}
	return false
}

// TestValuesDiffFindsDivergence: two seeds of one delaying plan charge
// different delays, and ValuesDiff names the PE and the kind.
func TestValuesDiffFindsDivergence(t *testing.T) {
	m := sim.Machine{NumPEs: 4, PEsPerNode: 4}
	var scheds [2]*sim.Schedule
	for i, seed := range []uint64{1, 2} {
		plan, _ := fault.NamedPlan("delayed-transfers", seed)
		s, err := harness.Run(harness.Cell{App: counterApp(), Machine: m, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		scheds[i] = s
	}
	d := harness.ValuesDiff(scheds[0], scheds[1])
	if !strings.HasPrefix(d, "PE ") || !strings.Contains(d, " charges differ") {
		t.Fatalf("two seeds of delayed-transfers: ValuesDiff = %q, want a PE and a kind", d)
	}
}

// TestValuesDiffIgnoresOrders pins the contract on hand-built
// schedules: reordered charges, a differently split instruction run and
// moved markers are equal values; a skew, a charge or a barrier's
// position is not.
func TestValuesDiffIgnoresOrders(t *testing.T) {
	m := sim.Machine{NumPEs: 2, PEsPerNode: 2}
	sched := func(skew int64, pe1 ...sim.Event) *sim.Schedule {
		return &sim.Schedule{Machine: m, Cost: sim.DefaultCostModel(), PEs: []*sim.PELog{
			sim.NewPELog(skew, sim.Event{Kind: sim.EvDelay, Arg: 500}, sim.Event{Kind: sim.EvBarrier}),
			sim.NewPELog(0, pe1...),
		}}
	}
	ev := func(k sim.EventKind, arg int64) sim.Event { return sim.Event{Kind: k, Arg: arg} }
	basePE1 := []sim.Event{ev(sim.EvInstr, sim.InstrRun(10, 3)), ev(sim.EvDelay, 7), ev(sim.EvBarrier, 0), ev(sim.EvQuiet, 1)}
	base := sched(0, basePE1...)
	same := sched(0, ev(sim.EvHandlerStart, 0), ev(sim.EvDelay, 7), ev(sim.EvInstr, 10),
		ev(sim.EvInstr, sim.InstrRun(10, 2)), ev(sim.EvHandlerEnd, 0), ev(sim.EvBarrier, 0), ev(sim.EvQuiet, 1))
	if d := harness.ValuesDiff(base, same); d != "" {
		t.Fatalf("reordered schedule reported different: %s", d)
	}
	for _, c := range []struct {
		name string
		s    *sim.Schedule
		want string
	}{
		{"skew", sched(20, basePE1...), "PE 0 skew"},
		{"charge", sched(0, ev(sim.EvInstr, sim.InstrRun(10, 2)), ev(sim.EvDelay, 7), ev(sim.EvBarrier, 0), ev(sim.EvQuiet, 1)), "PE 1 instr"},
		{"barrier", sched(0, ev(sim.EvInstr, sim.InstrRun(10, 3)), ev(sim.EvBarrier, 0), ev(sim.EvDelay, 7), ev(sim.EvQuiet, 1)), "makespan"},
		{"pes", &sim.Schedule{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}, PEs: []*sim.PELog{{}}}, "PE count"},
	} {
		if d := harness.ValuesDiff(base, c.s); !strings.Contains(d, c.want) {
			t.Errorf("%s: ValuesDiff = %q, want it to name %q", c.name, d, c.want)
		}
	}
}

func TestFailureCarriesReplaySpec(t *testing.T) {
	plan, _ := fault.NamedPlan("chaos", 0xbad)
	cell := harness.Cell{App: brokenApp(), Machine: sim.Machine{NumPEs: 4, PEsPerNode: 4}, Plan: plan}
	_, err := harness.Run(cell)
	if err == nil {
		t.Fatal("broken oracle did not fail")
	}
	if !strings.Contains(err.Error(), cell.Spec().String()) {
		t.Fatalf("failure %q does not carry the replay spec %q", err, cell.Spec())
	}
}

func TestSpecRoundtrip(t *testing.T) {
	spec := harness.Spec{App: "counter", Plan: "tiny-buffers", NumPEs: 8, PEsPerNode: 4, Seed: 0x1234abcd}
	got, err := harness.ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("roundtrip: %+v -> %q -> %+v", spec, spec.String(), got)
	}
	for _, bad := range []string{"", "a/b", "a/b/8x4", "a/b/84/0x1", "a/b/8x4/zzz", "a/b/NxP/0x1"} {
		if _, err := harness.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should error", bad)
		}
	}
}

func TestReplayFromSpecReproducesSchedule(t *testing.T) {
	plan, _ := fault.NamedPlan("delayed-transfers", 0xfeed)
	cell := harness.Cell{App: counterApp(), Machine: sim.Machine{NumPEs: 4, PEsPerNode: 4}, Plan: plan}
	orig, err := harness.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := harness.Replay([]harness.App{counterApp()}, cell.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if d := harness.ValuesDiff(orig, replayed); d != "" {
		t.Fatalf("replay-from-spec diverged: %s", d)
	}
	if _, err := harness.Replay([]harness.App{counterApp()}, harness.Spec{App: "nope", Plan: "chaos"}); err == nil {
		t.Fatal("unknown app should error")
	}
	if _, err := harness.Replay([]harness.App{counterApp()}, harness.Spec{App: "counter", Plan: "nope", NumPEs: 2, PEsPerNode: 2}); err == nil {
		t.Fatal("unknown plan should error")
	}
}

func TestDeriveSeedDecorrelates(t *testing.T) {
	m4 := sim.Machine{NumPEs: 4, PEsPerNode: 4}
	m8 := sim.Machine{NumPEs: 8, PEsPerNode: 4}
	seeds := map[uint64]string{}
	add := func(desc string, s uint64) {
		if prev, dup := seeds[s]; dup {
			t.Fatalf("seed collision: %s and %s both derive %#x", prev, desc, s)
		}
		seeds[s] = desc
	}
	add("a/p1/4", harness.DeriveSeed(1, "a", "p1", m4))
	add("a/p1/8", harness.DeriveSeed(1, "a", "p1", m8))
	add("a/p2/4", harness.DeriveSeed(1, "a", "p2", m4))
	add("b/p1/4", harness.DeriveSeed(1, "b", "p1", m4))
	add("a/p1/4/master2", harness.DeriveSeed(2, "a", "p1", m4))
}

func TestRunRandomReportsFailures(t *testing.T) {
	machines := []sim.Machine{{NumPEs: 4, PEsPerNode: 4}}
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }

	if fails := harness.RunRandom([]harness.App{counterApp()}, machines, 0xabc, 4, logf); len(fails) != 0 {
		t.Fatalf("healthy app reported failures: %+v", fails)
	}
	fails := harness.RunRandom([]harness.App{brokenApp()}, machines, 0xabc, 2, nil)
	if len(fails) != 2 {
		t.Fatalf("broken app produced %d failures, want 2", len(fails))
	}
	for _, f := range fails {
		if f.Plan == nil || f.Spec.App != "broken" || f.Err == "" {
			t.Fatalf("failure record incomplete: %+v", f)
		}
		if f.Spec.Seed != f.Plan.Seed || f.Spec.Plan != f.Plan.Name {
			t.Fatalf("failure spec does not match its plan: %+v", f)
		}
	}
	if len(lines) == 0 {
		t.Fatal("logf never called")
	}
}
