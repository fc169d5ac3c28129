package whatif_test

import (
	"bytes"
	"hash/fnv"
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
// instruction charges into runs, and through sim.NewPELog, one event per
// charge, as a recorder without the merge would have sealed it.
func randomLogs(seed int64, m sim.Machine, gens int, skew []int64) (merged, plain *sim.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	cost := sim.DefaultCostModel()
	rec := sim.NewScheduleRecorder(m, cost)
	plain = &sim.Schedule{Machine: m, Cost: cost, PEs: make([]*sim.PELog, m.NumPEs)}
	counts := []int64{7, 53, 120} // 53 and 7 round at IPC 2
	for pe := range plain.PEs {
		l, evs := rec.PE(pe), []sim.Event(nil)
		l.Skew = skew[pe]
		add := func(kind sim.EventKind, arg int64) {
			l.Append(kind, arg)
			evs = append(evs, sim.Event{Kind: kind, Arg: arg})
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
		plain.PEs[pe] = sim.NewPELog(skew[pe], evs...)
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

// TestOldScheduleFileProjectsTheSame: a schedule written before the
// merge (an event per charge), as shards, still loads, and says what the
// merged one of the same run says.
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

// TestScheduleFilesBytesPinned: the files WriteScheduleFile writes for
// randomLogs(9, ...) - one block a shard merged, two unmerged, a skew on
// PE 1 - have the FNV-64a digests they had when package whatif wrote
// them, and no other file is written.
func TestScheduleFilesBytesPinned(t *testing.T) {
	merged, plain := randomLogs(9, sim.Machine{NumPEs: 2, PEsPerNode: 2}, 3, []int64{0, 12})
	for _, c := range []struct {
		s    *sim.Schedule
		want map[string]uint64
	}{
		{merged, map[string]uint64{"PE0_schedule.bin": 0x170bd00d6206a188, "PE1_schedule.bin": 0x691d07e343c6bfc0, "schedule_meta.json": 0x325d49d1c97b4b73}},
		{plain, map[string]uint64{"PE0_schedule.bin": 0x29a2a8b4295869df, "PE1_schedule.bin": 0x8e0be712124957e0, "schedule_meta.json": 0x325d49d1c97b4b73}},
	} {
		dir := t.TempDir()
		if err := whatif.WriteScheduleFile(dir, c.s); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]uint64{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			got[e.Name()] = h.Sum64()
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%d events: wrote %#x, want %#x", c.s.Events(), got, c.want)
		}
	}
}

// TestNegativeChargeIsALoadError: Replay's clock ignores a negative
// charge and Project's sum subtracted it (makespan 100 against 60 here),
// so neither engine prices such a schedule and a file holding one does
// not load.
func TestNegativeChargeIsALoadError(t *testing.T) {
	evs := []sim.Event{{Kind: sim.EvFinishStart}, {Kind: sim.EvRaw, Arg: 100}, {Kind: sim.EvRaw, Arg: -40}, {Kind: sim.EvFinishEnd}}
	s := &sim.Schedule{Machine: sim.Machine{NumPEs: 1, PEsPerNode: 1}, Cost: sim.DefaultCostModel(), PEs: []*sim.PELog{sim.NewPELog(0, evs...)}}
	if a, err := whatif.Project(s, whatif.Identity(s)); err == nil {
		t.Errorf("Project priced a negative charge (makespan %d)", a.Totals.Makespan)
	}
	if r, err := whatif.Replay(s, whatif.Identity(s)); err == nil {
		t.Errorf("Replay priced a negative charge (makespan %d)", r.Makespan)
	}
	if err := whatif.WriteScheduleFile(t.TempDir(), s); err == nil {
		t.Error("WriteScheduleFile wrote a negative charge")
	}
	// A schedule's files, PE 0's shard hand-edited: written again from
	// the log holding the negative charge.
	dir := t.TempDir()
	evs[2].Arg = 40
	if err := whatif.WriteScheduleFile(dir, &sim.Schedule{Machine: s.Machine, Cost: s.Cost, PEs: []*sim.PELog{sim.NewPELog(0, evs...)}}); err != nil {
		t.Fatal(err)
	}
	var shard bytes.Buffer
	if err := s.PEs[0].WriteShard(&shard); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "PE0_schedule.bin"), shard.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := whatif.ReadScheduleFile(dir); err == nil || !strings.Contains(err.Error(), "PE 0 event 2") {
		t.Errorf("ReadScheduleFile of a hand-edited negative charge = %v, want an error naming PE 0 event 2", err)
	}
}
