package whatif_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/sim"
	"actorprof/internal/whatif"
)

// randomLogs draws one seeded run shape - per PE a prelude, a finish
// window of gens barrier generations, sends (instruction runs in the MAIN
// regime), copies, ingests and handler activations in between - and
// builds it twice: through PELog.Append, which merges adjacent equal
// instruction charges into runs, and as the Events literal of one event
// per charge that a recorder without the merge would have sealed.
func randomLogs(seed int64, m sim.Machine, gens int, skew []int64) (merged, plain *sim.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	cost := sim.DefaultCostModel()
	rec := sim.NewScheduleRecorder(m, sim.Virtual, cost)
	plain = &sim.Schedule{Machine: m, Timing: sim.Virtual, Cost: cost, PEs: make([]*sim.PELog, m.NumPEs)}
	counts := []int64{7, 53, 120} // 53 and 7 round at IPC 2
	for pe := range plain.PEs {
		l, lit := rec.PE(pe), &sim.PELog{Skew: skew[pe]}
		l.Skew = skew[pe]
		plain.PEs[pe] = lit
		add := func(kind sim.EventKind, arg int64) {
			l.Append(kind, arg)
			lit.Events = append(lit.Events, sim.Event{Kind: kind, Arg: arg})
		}
		// A run of 1-300 equal charges, now and then a few of them
		// already a run (a delivered batch charges its messages at once).
		run := func() {
			ins := counts[rng.Intn(len(counts))]
			for n := 1 + rng.Intn(300); n > 0; n-- {
				if k := int64(2 + rng.Intn(5)); rng.Intn(10) == 0 {
					add(sim.EvInstr, sim.InstrRun(ins, k))
				} else {
					add(sim.EvInstr, ins)
				}
			}
		}
		run() // the window opens mid-generation, inside these charges' tail
		add(sim.EvFinishStart, 0)
		for g := 0; g < gens; g++ {
			for step := 2 + rng.Intn(6); step > 0; step-- {
				switch rng.Intn(6) {
				case 0:
					add(sim.EvLocalCopy, int64(64*(1+rng.Intn(8))))
				case 1:
					add(sim.EvIngest, int64(1+rng.Intn(40)))
				case 2:
					add(sim.EvNetworkPut, int64(512+rng.Intn(512)))
				case 3:
					id := sim.BatchActorID(1, rng.Intn(2), 1+rng.Intn(50))
					add(sim.EvMainPause, 0)
					add(sim.EvHandlerStart, id)
					run()
					add(sim.EvHandlerEnd, id)
					add(sim.EvMainResume, 0)
				default:
					run()
				}
			}
			add(sim.EvQuiet, 1)
			add(sim.EvBarrier, 0)
		}
		add(sim.EvFinishEnd, 0)
	}
	return rec.Schedule(), plain
}

// TestMergedInstrRunsAreInvisible is the differential oracle for the
// recorder's merge: a log that holds runs and a log that holds every
// charge project - and replay - to the same totals, critical path and
// bottleneck ranking, under prices and skews that round per message.
func TestMergedInstrRunsAreInvisible(t *testing.T) {
	m := sim.Machine{NumPEs: 4, PEsPerNode: 2}
	for seed := int64(1); seed <= 4; seed++ {
		for _, skew := range [][]int64{{0, 0, 0, 0}, {0, 0, 7, 0}} {
			merged, plain := randomLogs(seed, m, 5, skew)
			if merged.Events()*5 > plain.Events() {
				t.Fatalf("seed %d: %d of %d events left after merging: the case shows nothing", seed, merged.Events(), plain.Events())
			}
			for name, p := range map[string]whatif.Perturbation{
				"identity":   whatif.Identity(plain),
				"instr x3":   {Cost: whatif.ScaledCost(plain.Cost, whatif.CostScales{Instr: 3, Local: 0.5})},
				"handler /3": {Cost: plain.Cost, HandlerSpeedup: map[int64]float64{sim.ActorID(1, 0): 3}},
			} {
				a, err := whatif.Project(merged, p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := whatif.Project(plain, p)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Totals.Equal(b.Totals) {
					t.Errorf("seed %d skew %v %s: totals differ\nmerged %+v\n plain %+v", seed, skew, name, a.Totals, b.Totals)
				}
				if !reflect.DeepEqual(a.Windows, b.Windows) {
					t.Errorf("seed %d skew %v %s: critical paths differ", seed, skew, name)
				}
				if !reflect.DeepEqual(a.Bottlenecks, b.Bottlenecks) {
					t.Errorf("seed %d skew %v %s: bottleneck rankings differ\nmerged %+v\n plain %+v", seed, skew, name, a.Bottlenecks, b.Bottlenecks)
				}
				if len(a.Windows) != 1 || len(a.Windows[0].Path.Edges) == 0 || len(a.Bottlenecks) != 2 {
					t.Fatalf("seed %d: %d windows, %d actors: the shape is not the intended one", seed, len(a.Windows), len(a.Bottlenecks))
				}
				ra, err := whatif.Replay(merged, p)
				if err != nil {
					t.Fatal(err)
				}
				if rb, err := whatif.Replay(plain, p); err != nil || !ra.Equal(rb) || !ra.Equal(a.Totals) {
					t.Errorf("seed %d skew %v %s: replays differ from each other or from the projection (%v)", seed, skew, name, err)
				}
			}
		}
	}
}

// TestOldScheduleFileProjectsTheSame: a schedule.json written before the
// merge (an event per charge) still loads, and says what the merged one
// of the same run says.
func TestOldScheduleFileProjectsTheSame(t *testing.T) {
	merged, plain := randomLogs(9, sim.Machine{NumPEs: 2, PEsPerNode: 2}, 3, []int64{0, 12})
	oldDir, newDir := t.TempDir(), t.TempDir()
	if err := whatif.WriteScheduleFile(oldDir, plain); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(newDir, merged); err != nil {
		t.Fatal(err)
	}
	var totals [2]whatif.RunTotals
	for i, dir := range []string{oldDir, newDir} {
		s, err := whatif.ReadScheduleFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := []*sim.Schedule{plain, merged}[i].Events(); s.Events() != want {
			t.Errorf("schedule %d read back with %d events, written with %d", i, s.Events(), want)
		}
		rep, err := whatif.Compare(s, whatif.Perturbation{Cost: whatif.ScaledCost(s.Cost, whatif.CostScales{Instr: 3})})
		if err != nil {
			t.Fatal(err)
		}
		totals[i] = rep.Projected.Totals
	}
	if !totals[0].Equal(totals[1]) {
		t.Errorf("old file projects to %+v, merged file to %+v", totals[0], totals[1])
	}
}

// TestNegativeChargeIsALoadError: Replay's clock ignores a negative
// charge and Project's sum subtracted it (makespan 100 against 60 here),
// so neither engine prices such a schedule and a file holding one does
// not load.
func TestNegativeChargeIsALoadError(t *testing.T) {
	s := &sim.Schedule{
		Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}, Cost: sim.DefaultCostModel(),
		PEs: []*sim.PELog{{Events: []sim.Event{
			{Kind: sim.EvFinishStart}, {Kind: sim.EvRaw, Arg: 100}, {Kind: sim.EvRaw, Arg: -40}, {Kind: sim.EvFinishEnd},
		}}},
	}
	if a, err := whatif.Project(s, whatif.Identity(s)); err == nil {
		t.Errorf("Project priced a negative charge (makespan %d)", a.Totals.Makespan)
	}
	if r, err := whatif.Replay(s, whatif.Identity(s)); err == nil {
		t.Errorf("Replay priced a negative charge (makespan %d)", r.Makespan)
	}
	if err := whatif.WriteScheduleFile(t.TempDir(), s); err == nil {
		t.Error("WriteScheduleFile wrote a negative charge")
	}
	dir := t.TempDir()
	s.PEs[0].Events[2].Arg = 40
	if err := whatif.WriteScheduleFile(dir, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, whatif.ScheduleFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte("[6,40]"), []byte("[6,-40]"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := whatif.ReadScheduleFile(dir); err == nil || !strings.Contains(err.Error(), "PE 0 event 2") {
		t.Errorf("ReadScheduleFile of a hand-edited negative charge = %v, want an error naming PE 0 event 2", err)
	}
}
