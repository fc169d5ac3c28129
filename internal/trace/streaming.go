package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"actorprof/internal/sim"
)

// Streaming mode addresses the paper's Section VI concern: FA-BSP
// programs emit message volumes whose traces reach the order of 100 GB,
// far beyond what a collector can buffer in memory. A streaming
// Collector writes every logical, PAPI, and physical record to disk the
// moment it is produced - in the on-disk formats selected by
// Config.Format, so ReadSet and the visualizer work unchanged - and
// keeps only O(PEs) state (counters and the overall breakdown) in
// memory. Records are encoded with the byte-level appenders of
// fastio.go (CSV) and binary.go (APBF) into per-stream scratch, so the
// hot path stays allocation-free.

// peStream holds one PE's open trace files in streaming mode: for each
// enabled record kind, one sink per encoding of Config.Format.
type peStream struct {
	logical sinks[LogicalRecord]
	papi    sinks[PAPIRecord]
	phys    sinks[PhysicalRecord]
}

func (s *peStream) close() error {
	return errors.Join(s.logical.close(), s.papi.close(), s.phys.close())
}

// NewStreamingCollector creates a collector that writes records straight
// into dir instead of buffering them. Call Finalize after the run to
// complete the directory (meta, overall, physical assembly); Set() then
// carries only counters and the overall breakdown - load the full data
// back with ReadSet(dir) when needed.
func NewStreamingCollector(cfg Config, machine sim.Machine, dir string) (*Collector, error) {
	c, err := NewCollector(cfg, machine)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating stream dir: %w", err)
	}
	c.streamDir = dir
	c.streams = make([]*peStream, machine.NumPEs)
	// Write the meta file eagerly: its content depends only on the
	// configuration, and having it on disk from the start lets a viewer
	// (actorprofd) ingest the directory while the run is still executing.
	if err := c.set.writeMeta(dir); err != nil {
		return nil, err
	}
	return c, nil
}

// Streaming reports whether this collector writes records to disk as
// they are produced.
func (c *Collector) Streaming() bool { return c.streamDir != "" }

// openStreams creates the per-PE files lazily at ForPE time.
func (c *Collector) openStreams(pe int) (s *peStream, err error) {
	s = &peStream{}
	format, events := c.cfg.Format, eventNames(c.cfg.PAPIEvents)
	if c.cfg.Logical {
		s.logical, err = openSinks(&logicalKind, c.streamDir, pe, format, events)
	}
	if err == nil && len(events) > 0 {
		s.papi, err = openSinks(&papiKind, c.streamDir, pe, format, events)
	}
	if err == nil && c.cfg.Physical {
		s.phys, err = openSinks(&physicalPartKind, c.streamDir, pe, format, events)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func physicalPart(pe int) string    { return fmt.Sprintf("physical.PE%d.part", pe) }
func physicalPartBin(pe int) string { return physicalPart(pe) + ".bin" }

// IsPhysicalPart reports whether a file name is a per-PE physical part
// in either encoding. Parts exist only between a streaming collector's
// ForPE and its Finalize, so one in a directory marks the run as live.
func IsPhysicalPart(name string) bool {
	name = strings.TrimSuffix(name, ".bin")
	return strings.HasPrefix(name, "physical.PE") && strings.HasSuffix(name, ".part")
}

// Finalize completes a streaming trace directory: flushes and closes
// every per-PE file, writes the meta file and the overall breakdown,
// and assembles the per-PE physical parts into physical.txt and/or
// physical.bin (removing the parts). Finalize must be called after
// every PECollector's Close. It is an error on non-streaming collectors.
//
// Every per-PE stream is closed even when some of them fail (the errors
// are joined), so a failing Finalize never leaks file handles; on
// failure the partial outputs of the failed step (a half-written
// physical.txt) are removed rather than left looking like a finished
// trace.
func (c *Collector) Finalize() error {
	if !c.Streaming() {
		return fmt.Errorf("trace: Finalize on a non-streaming collector")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var closeErrs []error
	for pe, s := range c.streams {
		if s == nil {
			continue
		}
		if err := s.close(); err != nil {
			closeErrs = append(closeErrs, fmt.Errorf("trace: closing PE %d stream files: %w", pe, err))
		}
		c.streams[pe] = nil
	}
	if err := errors.Join(closeErrs...); err != nil {
		// A stream that failed to flush has lost records; the per-PE
		// files on disk are untrustworthy, so do not assemble the
		// directory-level outputs over them.
		return err
	}
	if err := c.set.writeMeta(c.streamDir); err != nil {
		return err
	}
	// The overall breakdown and the segments are aggregated in memory even
	// in streaming mode (they are O(PEs x names), not O(records)), so
	// they are written here exactly as WriteFiles writes them.
	for _, job := range c.set.summaryJobs(c.streamDir) {
		if err := job(); err != nil {
			return err
		}
	}
	if c.cfg.Physical {
		if err := c.assemblePhysical(); err != nil {
			return err
		}
		// The time index rides on the assembled binary file; CSV-only
		// runs are served by the query engine's full-scan fallback.
		if c.cfg.Format.binary() {
			if _, err := BuildTimeIndex(c.streamDir); err != nil {
				return err
			}
		}
	}
	return nil
}

// assemblePhysical concatenates the per-PE physical parts into the
// directory-level physical file(s), removing the parts only after every
// enabled encoding has assembled durably.
func (c *Collector) assemblePhysical() error {
	for _, binary := range c.cfg.Format.encodings() {
		if err := c.concatParts(binary); err != nil {
			return err
		}
	}
	for pe := 0; pe < c.machine.NumPEs; pe++ {
		os.Remove(filepath.Join(c.streamDir, physicalPart(pe)))
		os.Remove(filepath.Join(c.streamDir, physicalPartBin(pe)))
	}
	return nil
}

// concatParts assembles one encoding's parts into physical.txt or
// physical.bin through the sink every other writer uses - so the APBF
// header is the writer's own - copying the parts' bytes verbatim behind
// it. On failure the half-written output is removed (never leave a
// truncated file that readers would trust); the parts, which still hold
// the data, stay.
func (c *Collector) concatParts(binary bool) (err error) {
	out, err := openSink(&physicalKind, c.streamDir, 0, binary, nil)
	if err != nil {
		return err
	}
	defer func() {
		if err = errors.Join(err, out.close()); err != nil {
			os.Remove(out.f.Name())
		}
	}()
	for pe := 0; pe < c.machine.NumPEs; pe++ {
		part := physicalPart(pe)
		if binary {
			part = physicalPartBin(pe)
		}
		if err := copyPart(out.w, filepath.Join(c.streamDir, part), binary); err != nil {
			return err
		}
	}
	return nil
}

// copyPart appends one part file's records to w. A binary part's own
// header is validated (physical kind, the writer's column count) and
// stripped, so the concatenated block stream stays well formed. A
// missing or empty part contributes nothing.
func copyPart(w io.Writer, part string, binary bool) error {
	in, err := os.Open(part)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer in.Close()
	var r io.Reader = in
	if binary {
		d, err := newBinReader(in, part, binKindPhysical, binPhysicalMinCols)
		if err != nil || d == nil {
			return err
		}
		if d.ncols != binPhysicalCols {
			return fmt.Errorf("trace: %s: physical part has %d columns, want %d", part, d.ncols, binPhysicalCols)
		}
		r = d.br // the block stream behind the header
	}
	_, err = io.Copy(w, r)
	return err
}
