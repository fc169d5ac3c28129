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

func recordedSchedule(tb testing.TB) *sim.Schedule {
	s, err := recorded()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// writeScheduleFileOp writes a recorded schedule.json: allocations are
// O(1) per write, none per event.
func writeScheduleFileOp(tb testing.TB) func() {
	s := recordedSchedule(tb)
	dir := tb.TempDir()
	return func() {
		if err := whatif.WriteScheduleFile(dir, s); err != nil {
			tb.Fatal(err)
		}
	}
}

// readScheduleFileOp reads it back and validates it: allocations are
// O(PEs) per read, none per event.
func readScheduleFileOp(tb testing.TB) func() {
	s := recordedSchedule(tb)
	dir := tb.TempDir()
	if err := whatif.WriteScheduleFile(dir, s); err != nil {
		tb.Fatal(err)
	}
	return func() {
		got, err := whatif.ReadScheduleFile(dir)
		if err != nil {
			tb.Fatal(err)
		}
		if got.Events() != s.Events() {
			tb.Fatalf("read %d events, wrote %d", got.Events(), s.Events())
		}
	}
}

// benchPerEvent times op b.N times and reports its cost per event of
// the recorded schedule.
func benchPerEvent(b *testing.B, op func()) {
	loop(b, op)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(recordedSchedule(b).Events()), "ns/event")
}

func BenchmarkWriteScheduleFile(b *testing.B) { benchPerEvent(b, writeScheduleFileOp(b)) }

func BenchmarkReadScheduleFile(b *testing.B) { benchPerEvent(b, readScheduleFileOp(b)) }
