package whatif

import (
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// The schedule's files are internal/trace's (DESIGN.md §14); these
// forward to it.

// ScheduleFileName is the schedule's JSON form: what a trace directory
// held before schedule shards, and what `actorprof export -schedule`
// writes from them.
const ScheduleFileName = trace.ScheduleJSONFile

// WriteScheduleFile is trace.WriteSchedule.
func WriteScheduleFile(dir string, s *sim.Schedule) error { return trace.WriteSchedule(dir, s) }

// ReadScheduleFile is trace.ReadSchedule.
func ReadScheduleFile(dir string) (*sim.Schedule, error) { return trace.ReadSchedule(dir) }

// HasSchedule is trace.HasSchedule.
func HasSchedule(dir string) bool { return trace.HasSchedule(dir) }
