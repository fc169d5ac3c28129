package whatif

import (
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// The schedule's files are internal/trace's (DESIGN.md §14); these
// forward to it.

// WriteScheduleFile is trace.WriteSchedule.
func WriteScheduleFile(dir string, s *sim.Schedule) error { return trace.WriteSchedule(dir, s) }

// ReadScheduleFile is trace.ReadSchedule.
func ReadScheduleFile(dir string) (*sim.Schedule, error) { return trace.ReadSchedule(dir) }
