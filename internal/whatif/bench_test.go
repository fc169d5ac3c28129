package whatif

import (
	"testing"

	"actorprof/internal/sim"
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

// BenchmarkCriticalPath measures the analytic engine end to end:
// projection, critical-path extraction, and bottleneck ranking over a
// 16-PE, 32-generation schedule.
func BenchmarkCriticalPath(b *testing.B) {
	s := benchSchedule(16, 32, 24)
	p := Identity(s)
	b.ReportMetric(float64(s.Events()), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := Project(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(an.Windows) != 1 {
			b.Fatalf("got %d windows", len(an.Windows))
		}
	}
}

// BenchmarkWhatIfReplay measures the deterministic replay engine over
// the same schedule under a non-identity perturbation.
func BenchmarkWhatIfReplay(b *testing.B) {
	s := benchSchedule(16, 32, 24)
	p := Perturbation{
		Cost:           ScaledCost(s.Cost, CostScales{Network: 2, Instr: 0.5}),
		HandlerSpeedup: map[int64]float64{sim.ActorID(1, 0): 2},
	}
	b.ReportMetric(float64(s.Events()), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := Replay(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if rt.Makespan == 0 {
			b.Fatal("zero makespan")
		}
	}
}

// BenchmarkCompare measures a what-if answered from the schedule alone:
// the baseline and perturbed projections and the replay that validates
// them, over a 32-PE schedule.
func BenchmarkCompare(b *testing.B) {
	s := benchSchedule(32, 32, 24)
	p := Perturbation{Cost: ScaledCost(s.Cost, CostScales{Network: 2})}
	b.ReportMetric(float64(s.Events()), "events")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(s, p); err != nil {
			b.Fatal(err)
		}
	}
}
