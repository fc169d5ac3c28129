package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"actorprof/internal/sim"
)

// scheduleMeta is a schedule's scheduleMetaFile: all of it but the
// events, which are in the shards.
type scheduleMeta struct {
	Machine sim.Machine   `json:"machine"`
	Cost    sim.CostModel `json:"cost"`
	Skew    []int64       `json:"skew"`
}

// WriteSchedule writes s into dir as its trace's what-if schedule
// (DESIGN.md §14): each PE's log as a shard, its sealed blocks as they
// are, then scheduleMetaFile. Every schedule file dir held before - its
// export included - goes first or is written over.
func WriteSchedule(dir string, s *sim.Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := dropSchedule(dir, len(s.PEs)); err != nil {
		return err
	}
	meta := scheduleMeta{Machine: s.Machine, Cost: s.Cost, Skew: make([]int64, len(s.PEs))}
	for pe, l := range s.PEs {
		meta.Skew[pe] = l.Skew
		if err := writeSealed(dir, scheduleShardFile(pe), l.WriteShard); err != nil {
			return err
		}
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, scheduleMetaFile), data, 0o644)
}

// dropSchedule removes the schedule files of dir that a write of n PEs'
// shards would not write over: the meta file, whose presence says the
// shards are complete, schedule.json and the shards of PEs n and on.
func dropSchedule(dir string, n int) error {
	for _, name := range []string{scheduleMetaFile, ScheduleJSONFile} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for pe := n; ; pe++ {
		if err := os.Remove(filepath.Join(dir, scheduleShardFile(pe))); os.IsNotExist(err) {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// ReadSchedule loads and validates dir's schedule: its shards, read into
// the sealed form a recorded schedule has. A directory without them is an
// os.ErrNotExist error: the run predates schedule capture (or was traced
// without it) and cannot be what-if profiled. schedule.json is an export
// and is not read: a directory holding only it has no schedule. A path
// that is no directory is an error that says so, and not os.ErrNotExist.
// A schedule of a machine other than its trace's - a trace rewritten over
// an older run's schedule - is refused.
func ReadSchedule(dir string) (*sim.Schedule, error) {
	s, err := readScheduleShards(dir)
	if err != nil {
		if fi, serr := os.Stat(dir); serr != nil {
			return nil, fmt.Errorf("trace: %v", serr) // %v: a missing dir is not a missing schedule
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("trace: %s is not a directory", dir)
		} else if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("trace: %s has no recorded schedule (the run predates schedule capture; core.RunCaptured records one): %w", dir, os.ErrNotExist)
		}
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid schedule in %s: %w", dir, err)
	}
	if m, err := readMeta(filepath.Join(dir, MetaFile)); err == nil && (m.npes != s.Machine.NumPEs || m.perNode != s.Machine.PEsPerNode) {
		return nil, fmt.Errorf("trace: %s holds a schedule of %d PEs, %d per node, beside a trace of %d PEs, %d per node: the trace was rewritten after the schedule was recorded",
			dir, s.Machine.NumPEs, s.Machine.PEsPerNode, m.npes, m.perNode)
	}
	return s, nil
}

// readScheduleShards reads dir's schedule shards; os.ErrNotExist when dir
// has no scheduleMetaFile.
func readScheduleShards(dir string) (*sim.Schedule, error) {
	data, err := os.ReadFile(filepath.Join(dir, scheduleMetaFile))
	if err != nil {
		return nil, err
	}
	var meta scheduleMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("trace: parsing %s: %w", scheduleMetaFile, err)
	}
	if len(meta.Skew) != meta.Machine.NumPEs {
		return nil, fmt.Errorf("trace: %s has %d skews for a %d-PE machine", scheduleMetaFile, len(meta.Skew), meta.Machine.NumPEs)
	}
	s := &sim.Schedule{Machine: meta.Machine, Cost: meta.Cost, PEs: make([]*sim.PELog, len(meta.Skew))}
	scratch := new(sim.Block)
	for pe := range s.PEs {
		name := scheduleShardFile(pe)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("trace: the schedule's shard %s: %v", name, err) // not os.ErrNotExist: the schedule is there, torn
		}
		if s.PEs[pe], err = sim.ReadShard(data, scratch); err != nil {
			return nil, fmt.Errorf("trace: reading %s: %w", name, err)
		}
		s.PEs[pe].Skew = meta.Skew[pe]
	}
	return s, nil
}

// HasSchedule reports whether dir carries a recorded schedule: its meta
// file, written after its shards.
func HasSchedule(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, scheduleMetaFile))
	return err == nil && !fi.IsDir()
}
