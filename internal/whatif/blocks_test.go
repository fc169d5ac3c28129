package whatif_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// windowsLog draws a PE's log of many blocks whose finish windows open and
// close in the middle of generations past the first, so that a critical
// path re-walks generations from their own blocks.
func windowsLog(rng *rand.Rand, l *sim.PELog, gens int) {
	for g := 0; g < gens; g++ {
		for step := 200 + rng.Intn(200); step > 0; step-- {
			switch rng.Intn(9) {
			case 0:
				l.Append(sim.EvNetworkPut, int64(64+rng.Intn(4096)))
			case 1:
				id := sim.BatchActorID(rng.Intn(3), 0, 1+rng.Intn(8))
				l.Append(sim.EvHandlerStart, id)
				l.Append(sim.EvInstr, int64(20+rng.Intn(60)))
				l.Append(sim.EvHandlerEnd, id)
			case 2:
				l.Append(sim.EvMainPause, 0)
				l.Append(sim.EvIngest, int64(1+rng.Intn(64)))
				l.Append(sim.EvMainResume, 0)
			default:
				l.Append(sim.EvInstr, int64(7+rng.Intn(3)*46))
			}
			if g%3 == 1 && step == 100 {
				l.Append(sim.EvFinishStart, 0)
			}
			if g%3 == 2 && step == 50 {
				l.Append(sim.EvFinishEnd, 0)
			}
		}
		l.Append(sim.EvQuiet, 1)
		l.Append(sim.EvBarrier, 0)
	}
}

// windowsSchedule records windowsLog on 4 PEs, skewed.
func windowsSchedule() *sim.Schedule {
	rng := rand.New(rand.NewSource(45))
	rec := sim.NewScheduleRecorder(sim.Machine{NumPEs: 4, PEsPerNode: 2}, sim.DefaultCostModel())
	for pe := 0; pe < 4; pe++ {
		rec.PE(pe).Skew = int64(pe * 5)
		windowsLog(rng, rec.PE(pe), 12)
	}
	return rec.Schedule()
}

// windowsPerturbations are what TestRecordedAndDecodedSchedulesCompareAlike asks.
func windowsPerturbations(s *sim.Schedule) []whatif.Perturbation {
	return []whatif.Perturbation{
		whatif.Identity(s),
		{Cost: whatif.ScaledCost(s.Cost, whatif.CostScales{Network: 3, Instr: 0.5})},
		{Cost: s.Cost, HandlerSpeedup: map[int64]float64{sim.ActorID(1, 0): 2}},
	}
}

// byHand is s with each log written again by hand, from the events its
// walk reads: sim.NewPELog, not Append.
func byHand(s *sim.Schedule) *sim.Schedule {
	u := &sim.Schedule{Machine: s.Machine, Cost: s.Cost, PEs: make([]*sim.PELog, len(s.PEs))}
	for pe, l := range s.PEs {
		var evs []sim.Event
		c := l.Walk(new(sim.Block))
		for b := c.Next(); b != nil; b = c.Next() {
			evs = append(evs, b...)
		}
		u.PEs[pe] = sim.NewPELog(l.Skew, evs...)
	}
	return u
}

// TestRecordedAndDecodedSchedulesCompareAlike: a recorded schedule - its
// logs sealed as Append recorded them - and the same schedule decoded
// from its events - its logs written by hand with sim.NewPELog - give
// identical Compare reports, critical paths and bottleneck rankings
// included, as does the schedule read back from its shards.
func TestRecordedAndDecodedSchedulesCompareAlike(t *testing.T) {
	recorded := windowsSchedule()
	decoded := byHand(recorded)
	dir := t.TempDir()
	if err := whatif.WriteScheduleFile(dir, recorded); err != nil {
		t.Fatal(err)
	}
	read, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recorded.Events() < 4*4*1024 {
		t.Fatalf("%d events: the logs do not span blocks", recorded.Events())
	}
	var reps []*whatif.Report
	for _, p := range windowsPerturbations(recorded) {
		want, err := whatif.Compare(recorded, p)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, want)
		if len(want.Baseline.Windows) < 3 || len(want.Baseline.Windows[1].Path.Edges) == 0 {
			t.Fatalf("%d windows: the shape is not the intended one", len(want.Baseline.Windows))
		}
		// A generation clipped by a window is re-walked from its own block:
		// its charges, priced in the state the PE entered it in, still
		// tile the window.
		for _, w := range want.Projected.Windows {
			var sum int64
			for _, e := range w.Path.Edges {
				b := e.Breakdown
				sum += b.Main + b.Comm + b.Proc + b.Off
			}
			if sum != w.Span {
				t.Errorf("window %d: its critical path attributes %d cycles of %d", w.Index, sum, w.Span)
			}
		}
		for name, s := range map[string]*sim.Schedule{"decoded": decoded, "read": read} {
			if got, err := whatif.Compare(s, p); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s schedule: Compare differs from the recorded one's (%v)", name, err)
			}
		}
	}
	// The reports are the ones the engines gave while a schedule was a
	// slice of events (testdata, recorded then).
	got, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile("testdata/windows_reports.golden.json"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the reports differ from the ones recorded before schedules were blocks (%v)", err)
	}
}

// TestScheduleOfAnotherMachineIsRefused: a trace written over a directory
// drops the schedule recorded there before, and a schedule whose machine
// is not its trace's does not load.
func TestScheduleOfAnotherMachineIsRefused(t *testing.T) {
	merged, _ := randomLogs(3, sim.Machine{NumPEs: 2, PEsPerNode: 2}, 2, []int64{0, 0})
	dir := t.TempDir()
	if err := trace.NewSet(trace.Config{Overall: true}, 2, 2).WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(dir, merged); err != nil {
		t.Fatal(err)
	}
	if _, err := whatif.ReadScheduleFile(dir); err != nil {
		t.Fatalf("a schedule beside its own trace: %v", err)
	}
	var doc bytes.Buffer
	if err := merged.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	export := filepath.Join(dir, trace.ScheduleJSONFile)
	if err := os.WriteFile(export, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := trace.NewSet(trace.Config{Overall: true}, 4, 2).WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if trace.HasSchedule(dir) {
		t.Error("rewriting the trace kept the schedule of the run before")
	}
	if _, err := os.Stat(export); !os.IsNotExist(err) {
		t.Errorf("rewriting the trace kept the export of the run before's schedule (%v)", err)
	}
	if err := whatif.WriteScheduleFile(dir, merged); err != nil {
		t.Fatal(err)
	}
	if _, err := whatif.ReadScheduleFile(dir); err == nil || !strings.Contains(err.Error(), "trace of 4 PEs") {
		t.Errorf("a 2-PE schedule beside a 4-PE trace: %v, want it refused", err)
	}
}
