package whatif_test

import (
	"testing"

	"actorprof/internal/sim"
	"actorprof/internal/whatif"
)

// benchSchedule synthesizes a deterministic schedule shaped like a real
// FA-BSP run - per generation a main-loop instruction burst, a fan-out
// of buffer transfers with handler activations, a quiet, and a barrier -
// without running a simulation, so the benchmark measures only the
// engines.
func benchSchedule(pes, gens, transfersPerGen int) *sim.Schedule {
	rec := sim.NewScheduleRecorder(sim.Machine{NumPEs: pes, PEsPerNode: pes}, sim.DefaultCostModel())
	for pe := 0; pe < pes; pe++ {
		l := rec.PE(pe)
		l.Append(sim.EvFinishStart, 0)
		for g := 0; g < gens; g++ {
			l.Append(sim.EvInstr, int64(200+pe*17+g*31))
			l.Append(sim.EvMainPause, 0)
			for i := 0; i < transfersPerGen; i++ {
				l.Append(sim.EvNetworkPut, int64(64+(i%7)*16))
				actor := sim.ActorID(i%3, 0)
				l.Append(sim.EvHandlerStart, actor)
				l.Append(sim.EvInstr, int64(40+i%11))
				l.Append(sim.EvHandlerEnd, actor)
			}
			l.Append(sim.EvQuiet, int64(transfersPerGen))
			l.Append(sim.EvBarrier, 0)
			l.Append(sim.EvMainResume, 0)
		}
		l.Append(sim.EvMainPause, 0)
		l.Append(sim.EvFinishEnd, 0)
	}
	return rec.Schedule()
}

// loop is how the benchmarks time op: b.N calls after its setup, with
// allocations reported.
func loop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// criticalPathOp runs the analytic engine end to end: projection,
// critical-path extraction, and bottleneck ranking over a 16-PE,
// 32-generation schedule.
func criticalPathOp(tb testing.TB) func() {
	s := benchSchedule(16, 32, 24)
	p := whatif.Identity(s)
	return func() {
		an, err := whatif.Project(s, p)
		if err != nil {
			tb.Fatal(err)
		}
		if len(an.Windows) != 1 {
			tb.Fatalf("got %d windows", len(an.Windows))
		}
	}
}

// replayOp runs the deterministic replay engine over the same schedule
// under a non-identity perturbation.
func replayOp(tb testing.TB) func() {
	s := benchSchedule(16, 32, 24)
	p := whatif.Perturbation{
		Cost:           whatif.ScaledCost(s.Cost, whatif.CostScales{Network: 2, Instr: 0.5}),
		HandlerSpeedup: map[int64]float64{sim.ActorID(1, 0): 2},
	}
	return func() {
		rt, err := whatif.Replay(s, p)
		if err != nil {
			tb.Fatal(err)
		}
		if rt.Makespan == 0 {
			tb.Fatal("zero makespan")
		}
	}
}

// compareOp answers a what-if from the schedule alone: the baseline and
// perturbed projections and the replay that validates them, over a
// 32-PE schedule.
func compareOp(tb testing.TB) func() {
	s := benchSchedule(32, 32, 24)
	p := whatif.Perturbation{Cost: whatif.ScaledCost(s.Cost, whatif.CostScales{Network: 2})}
	return func() {
		if _, err := whatif.Compare(s, p); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) { loop(b, criticalPathOp(b)) }

func BenchmarkWhatIfReplay(b *testing.B) { loop(b, replayOp(b)) }

func BenchmarkCompare(b *testing.B) { loop(b, compareOp(b)) }

// TestEngineAllocs holds the what-if benchmarks to their allocation
// budgets, each operation built by its benchmark's setup: a projection
// and a replay allocate per PE and per window, schedule.json's codec O(1)
// per write and O(PEs) per read, none of them per event. fmt's printers
// come from a sync.Pool, which drops Puts at random under -race.
func TestEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for _, c := range []struct {
		name   string
		op     func(testing.TB) func()
		runs   int
		budget float64
	}{
		{"CriticalPath", criticalPathOp, 20, 47},
		{"WhatIfReplay", replayOp, 20, 20},
		{"Compare", compareOp, 20, 163},
		{"WriteScheduleFile", writeScheduleFileOp, 5, 9},
		{"ReadScheduleFile", readScheduleFileOp, 5, 294},
	} {
		n := testing.AllocsPerRun(c.runs, c.op(t))
		t.Logf("%s: %.0f allocs", c.name, n)
		if n > c.budget {
			t.Errorf("%s allocates %.0f times, budget %.0f", c.name, n, c.budget)
		}
	}
}
