package whatif

import (
	"fmt"
	"os"
	"path/filepath"

	"actorprof/internal/sim"
)

// ScheduleFileName is the recorded-schedule sidecar written next to a
// trace directory's other artifacts.
const ScheduleFileName = "schedule.json"

// WriteScheduleFile writes the schedule as dir/schedule.json, through
// the schedule's own codec (sim.Schedule.WriteJSON).
func WriteScheduleFile(dir string, s *sim.Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, ScheduleFileName))
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("whatif: writing %s: %w", ScheduleFileName, err)
	}
	return f.Close()
}

// ReadScheduleFile loads and validates dir/schedule.json. A missing
// file is an os.ErrNotExist error: the run predates schedule capture
// (or was traced without it) and cannot be what-if profiled.
func ReadScheduleFile(dir string) (*sim.Schedule, error) {
	data, err := os.ReadFile(filepath.Join(dir, ScheduleFileName))
	if err != nil {
		return nil, err
	}
	s, err := sim.ParseSchedule(data)
	if err != nil {
		return nil, fmt.Errorf("whatif: parsing %s: %w", ScheduleFileName, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("whatif: invalid %s: %w", ScheduleFileName, err)
	}
	return s, nil
}

// HasSchedule reports whether dir carries a recorded schedule.
func HasSchedule(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, ScheduleFileName))
	return err == nil && !fi.IsDir()
}
