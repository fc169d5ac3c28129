package whatif_test

import (
	"sync"
	"testing"

	"actorprof/internal/core"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// recorded is the schedule of a scale-12, 16-PE trianglecount run (about
// 0.38 M events), captured once per test binary.
var recorded = sync.OnceValues(func() (*sim.Schedule, error) {
	rep, err := core.RunTriangle(core.TriangleExperiment{Scale: 12, Seed: 42, NumPEs: 16, PEsPerNode: 16,
		Trace: trace.Config{Overall: true}})
	if err != nil {
		return nil, err
	}
	return rep.Schedule, nil
})

func recordedSchedule(b *testing.B) *sim.Schedule {
	s, err := recorded()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func reportPerEvent(b *testing.B, s *sim.Schedule) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Events()), "ns/event")
}

// BenchmarkWriteScheduleFile writes a recorded schedule.json: allocations
// are O(1) per write, none per event.
func BenchmarkWriteScheduleFile(b *testing.B) {
	s := recordedSchedule(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := whatif.WriteScheduleFile(dir, s); err != nil {
			b.Fatal(err)
		}
	}
	reportPerEvent(b, s)
}

// BenchmarkReadScheduleFile reads it back and validates it: allocations
// are O(PEs) per read, none per event.
func BenchmarkReadScheduleFile(b *testing.B) {
	s := recordedSchedule(b)
	dir := b.TempDir()
	if err := whatif.WriteScheduleFile(dir, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := whatif.ReadScheduleFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		if got.Events() != s.Events() {
			b.Fatalf("read %d events, wrote %d", got.Events(), s.Events())
		}
	}
	reportPerEvent(b, s)
}
