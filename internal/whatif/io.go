package whatif

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// ScheduleFileName is the schedule's JSON form: what a trace directory
// held before schedule shards, and what `actorprof export -schedule`
// writes from them.
const ScheduleFileName = sim.ScheduleJSONFile

// scheduleMeta is a schedule's sim.ScheduleMetaFile: all of it but the
// events, which are in the shards.
type scheduleMeta struct {
	Machine sim.Machine   `json:"machine"`
	Cost    sim.CostModel `json:"cost"`
	Skew    []int64       `json:"skew"`
}

// WriteScheduleFile writes the schedule into dir as its trace's what-if
// schedule (DESIGN.md §14): each PE's log as an APBF shard, its sealed
// blocks as they are, then sim.ScheduleMetaFile. Every schedule file dir
// held before - of either layout - goes first or is written over.
func WriteScheduleFile(dir string, s *sim.Schedule) error {
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
	w := bufio.NewWriterSize(nil, 64<<10)
	for pe, l := range s.PEs {
		meta.Skew[pe] = l.Skew
		if err := writeShard(filepath.Join(dir, sim.ScheduleShardFile(pe)), w, l); err != nil {
			return err
		}
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, sim.ScheduleMetaFile), data, 0o644)
}

func writeShard(path string, w *bufio.Writer, l *sim.PELog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w.Reset(f)
	if err = l.WriteShard(w); err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("whatif: writing %s: %w", path, err)
	}
	return nil
}

// dropSchedule removes the schedule files of dir that a write of n PEs'
// shards would not write over: the meta file, whose presence says the
// shards are complete, schedule.json and the shards of PEs n and on.
func dropSchedule(dir string, n int) error {
	for _, name := range []string{sim.ScheduleMetaFile, ScheduleFileName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for pe := n; ; pe++ {
		if err := os.Remove(filepath.Join(dir, sim.ScheduleShardFile(pe))); os.IsNotExist(err) {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// ReadScheduleFile loads and validates dir's schedule: its shards, read
// into the sealed form a recorded schedule has, or, in a directory
// written before shards, its schedule.json, read through the JSON codec
// and sealed. A directory with neither is an os.ErrNotExist error: the
// run predates schedule capture (or was traced without it) and cannot be
// what-if profiled. A schedule of a machine other than its trace's - a
// trace rewritten over an older run's schedule - is refused.
func ReadScheduleFile(dir string) (*sim.Schedule, error) {
	s, err := readShards(dir)
	if errors.Is(err, os.ErrNotExist) {
		s, err = readScheduleJSON(dir)
	}
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("whatif: invalid schedule in %s: %w", dir, err)
	}
	if npes, per, err := trace.Shape(dir); err == nil && (npes != s.Machine.NumPEs || per != s.Machine.PEsPerNode) {
		return nil, fmt.Errorf("whatif: %s holds a schedule of %d PEs, %d per node, beside a trace of %d PEs, %d per node: the trace was rewritten after the schedule was recorded",
			dir, s.Machine.NumPEs, s.Machine.PEsPerNode, npes, per)
	}
	return s, nil
}

// readShards reads dir's schedule shards; os.ErrNotExist when dir has no
// sim.ScheduleMetaFile.
func readShards(dir string) (*sim.Schedule, error) {
	data, err := os.ReadFile(filepath.Join(dir, sim.ScheduleMetaFile))
	if err != nil {
		return nil, err
	}
	var meta scheduleMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("whatif: parsing %s: %w", sim.ScheduleMetaFile, err)
	}
	if len(meta.Skew) != meta.Machine.NumPEs {
		return nil, fmt.Errorf("whatif: %s has %d skews for a %d-PE machine", sim.ScheduleMetaFile, len(meta.Skew), meta.Machine.NumPEs)
	}
	s := &sim.Schedule{Machine: meta.Machine, Cost: meta.Cost, PEs: make([]*sim.PELog, len(meta.Skew))}
	scratch := new(sim.Block)
	for pe := range s.PEs {
		name := sim.ScheduleShardFile(pe)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("whatif: the schedule's shard %s: %v", name, err) // not os.ErrNotExist: the schedule is there, torn
		}
		if s.PEs[pe], err = sim.ReadShard(data, scratch); err != nil {
			return nil, fmt.Errorf("whatif: reading %s: %w", name, err)
		}
		s.PEs[pe].Skew = meta.Skew[pe]
	}
	return s, nil
}

// readScheduleJSON reads a schedule.json and seals its logs.
func readScheduleJSON(dir string) (*sim.Schedule, error) {
	data, err := os.ReadFile(filepath.Join(dir, ScheduleFileName))
	if err != nil {
		return nil, err
	}
	s, err := sim.ParseSchedule(data)
	if err != nil {
		return nil, fmt.Errorf("whatif: parsing %s: %w", ScheduleFileName, err)
	}
	for pe, l := range s.PEs {
		if l != nil {
			s.PEs[pe] = sim.NewPELog(l.Skew, l.Events...)
		}
	}
	return s, nil
}

// HasSchedule reports whether dir carries a recorded schedule, in either
// layout.
func HasSchedule(dir string) bool {
	for _, name := range []string{sim.ScheduleMetaFile, ScheduleFileName} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && !fi.IsDir() {
			return true
		}
	}
	return false
}
