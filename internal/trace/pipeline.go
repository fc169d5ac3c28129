package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The one trace pipeline: scanShard reads any kind's shard in either
// encoding, sink writes one, and walk drives scanShard over a whole trace
// directory. Every reader and writer in the package is one of these three
// plus a few lines of its own.

// openShard opens the first existing candidate path and sniffs whether
// its content is the binary format (by magic, so auto-detection works
// regardless of file extension), then rewinds: the decoder the caller
// picks is the only buffer layer over the file. Returns an
// os.IsNotExist-able error when no candidate exists.
func openShard(candidates ...string) (*os.File, bool, error) {
	var lastErr error = os.ErrNotExist
	for _, p := range candidates {
		f, err := os.Open(p)
		if err != nil {
			lastErr = err
			continue
		}
		head := make([]byte, len(binMagic))
		n, err := io.ReadFull(f, head)
		if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return nil, false, err
		}
		return f, n == len(head) && string(head) == binMagic, nil
	}
	return nil, false, lastErr
}

// scanShard streams PE pe's shard of kind k into yield without
// materializing records: it resolves the binary/CSV candidates, sniffs
// the format, decodes record by record and applies the kind's PE-range
// check. found is false when neither file exists. A record that fails to
// decode or check is fatal in strict mode; a tolerant scan counts it in
// skipped and carries on, so the torn tail of a file a streaming
// collector is still appending to costs only the records it tore. An
// unreadable APBF header counts as one skipped artifact, a torn block as
// the rows it claimed.
func scanShard[T any](k *kind[T], dir string, pe int, m *meta, tolerant bool, yield func(T)) (found bool, skipped int, err error) {
	f, isBin, err := openShard(filepath.Join(dir, k.binFile(pe)), filepath.Join(dir, k.csvFile(pe)))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, 0, err
	}
	defer f.Close()
	npes := m.npes
	if isBin {
		d, err := newBinReader(f, f.Name(), k.binKind, k.minCols)
		if err != nil && tolerant {
			return true, 1, nil
		}
		if err != nil || d == nil { // d == nil: an empty file holds no records
			return true, 0, err
		}
		lost, err := d.eachBlock(k.hasStr, func(b block) error {
			for i := 0; i < b.rows; i++ {
				rec := k.fromRow(d, i)
				if err := k.check(rec, npes); err == nil {
					yield(rec)
				} else if tolerant {
					skipped++
				} else {
					return err
				}
			}
			return nil
		})
		if tolerant {
			return true, skipped + lost, nil
		}
		return true, 0, err
	}
	scratch := newCSVScratch(len(m.events))
	prefix := []byte(k.csvPrefix)
	sc := newLineScanner(f)
	for sc.Scan() {
		line := trimSpace(sc.Bytes())
		if len(line) == 0 || !bytes.HasPrefix(line, prefix) {
			continue
		}
		rec, err := k.parseCSV(line, scratch)
		if err == nil {
			err = k.check(rec, npes)
		}
		if err == nil {
			yield(rec)
		} else if tolerant {
			skipped++
		} else {
			return true, 0, err
		}
	}
	err = sc.Err()
	if err != nil && tolerant && errors.Is(err, bufio.ErrTooLong) {
		// A too-long line is content corruption (count it, stop parsing);
		// anything else is a real I/O failure and stays fatal.
		skipped++
		err = nil
	}
	return true, skipped, err
}

// sink is one open output file of one record kind, in one encoding: CSV
// lines or APBF blocks. Write errors are sticky in the underlying writers
// and surface from close.
type sink[T any] struct {
	k      *kind[T]
	f      *os.File
	w      *bufio.Writer
	bin    *binWriter // nil: CSV lines
	events []string
	buf    []byte  // CSV line scratch, initially line[:0]
	row    []int64 // APBF row scratch
	line   [128]byte
}

// openSink creates PE pe's shard of kind k in dir; events are the run's
// PAPI event names (the counter columns).
func openSink[T any](k *kind[T], dir string, pe int, binary bool, events []string) (*sink[T], error) {
	name := k.csvFile(pe)
	if binary {
		name = k.binFile(pe)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	s := &sink[T]{k: k, f: f, w: bufio.NewWriterSize(f, 1<<16), events: events}
	if !binary {
		s.buf = s.line[:0]
	} else {
		ncols := k.cols
		if k.counters {
			ncols += len(events)
		}
		s.row = make([]int64, ncols)
		s.bin = newBinWriter(s.w, k.binKind, ncols)
		// Flush the header so a live reader sniffing the file sees the
		// magic immediately, not after 64 KB of buffered blocks.
		if err := s.w.Flush(); err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: writing %s: %w", f.Name(), err)
		}
	}
	return s, nil
}

func (s *sink[T]) put(r T) {
	if s.bin == nil {
		s.buf = s.k.appendCSV(s.buf[:0], r, s.events)
		s.w.Write(s.buf)
	} else if str := s.k.toRow(r, s.row); s.k.hasStr {
		s.bin.pushStr(str, s.row...)
	} else {
		s.bin.push(s.row...)
	}
}

// close finishes the last block, flushes and closes the file - always,
// so a failing sink never leaks its handle - and reports the first error.
func (s *sink[T]) close() error {
	var err error
	if s.bin != nil {
		err = s.bin.finish()
	}
	if ferr := s.w.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", s.f.Name(), err)
	}
	return nil
}

// sinks is one shard's open outputs: one sink per encoding the Format
// selects, so "both" is two sinks in the slice and nothing else.
type sinks[T any] []*sink[T]

func openSinks[T any](k *kind[T], dir string, pe int, format Format, events []string) (sinks[T], error) {
	if err := (Config{Format: format}).Validate(); err != nil {
		return nil, err // never index the encodings table with it
	}
	var out sinks[T]
	for _, binary := range format.encodings() {
		s, err := openSink(k, dir, pe, binary, events)
		if err != nil {
			out.close()
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (ss sinks[T]) put(r T) {
	for _, s := range ss {
		s.put(r)
	}
}

func (ss sinks[T]) close() error {
	var err error
	for _, s := range ss {
		err = errors.Join(err, s.close())
	}
	return err
}

// writeShard writes PE pe's shard of kind k, in every encoding of format,
// from the record slices in order.
func writeShard[T any](k *kind[T], dir string, pe int, format Format, events []string, recs ...[]T) error {
	out, err := openSinks(k, dir, pe, format, events)
	if err != nil {
		return err
	}
	for _, rs := range recs {
		for _, r := range rs {
			out.put(r)
		}
	}
	return out.close()
}

// consumer is what a reader plugs into walk: for each kind, a factory
// the walker calls once per shard - on the worker about to scan it - for
// the function that receives the shard's records. pe is -1 for the
// run-wide files; walk opens no file of a kind whose factory is nil.
// Shards scan concurrently, so a yield may only touch state owned by its
// shard (a result slot) or by its worker (a partial accumulator that
// merges commutatively).
type consumer struct {
	logical  func(worker, pe int) func(LogicalRecord)
	papi     func(worker, pe int) func(PAPIRecord)
	overall  func(worker, pe int) func(OverallRecord)
	physical func(worker, pe int) func(PhysicalRecord)
	segments func(worker, pe int) func(SegmentRecord)
}

// features reports which optional artifacts walk found on disk.
type features struct{ logical, overall, physical bool }

// shardMark is one scan task's result slot (DESIGN.md §10): the task
// that fills it is its only writer, and the merge reads it only after
// the worker pool has drained.
type shardMark struct {
	found   bool
	skipped int
	err     error
}

// scanTask appends the task that scans one shard into its result slot -
// or nothing, when the consumer has no factory for the kind.
func scanTask[T any](tasks []func(worker int), mark *shardMark, k *kind[T], dir string, pe int, m *meta, tolerant bool,
	yield func(worker, pe int) func(T)) []func(worker int) {
	if yield == nil {
		return tasks
	}
	return append(tasks, func(w int) {
		mark.found, mark.skipped, mark.err = scanShard(k, dir, pe, m, tolerant, yield(w, pe))
	})
}

// walk is the directory walker behind every reader. It owns the task
// layout (one task per per-PE file and per shared file of the kinds the
// consumer takes, on a pool of opts.poolSize workers), the file order -
// logical PE 0..n-1, PAPI PE 0..n-1, overall, physical, segments - in
// which marks merge, and with it the guarantees the readers share: the
// skipped total, and the error a sequential read would hit first, are
// identical for every worker count. A tolerant walk that finds no
// assembled physical file falls back to the per-PE .part shards a live
// streaming run keeps until Finalize.
func walk(dir string, m *meta, opts ReadOptions, c consumer) (features, int, error) {
	n, tolerant := m.npes, opts.Tolerant
	marks := make([]shardMark, 2*n+3)
	tasks := make([]func(worker int), 0, len(marks))
	for pe := 0; pe < n; pe++ {
		tasks = scanTask(tasks, &marks[pe], &logicalKind, dir, pe, m, tolerant, c.logical)
	}
	for pe := 0; pe < n; pe++ {
		tasks = scanTask(tasks, &marks[n+pe], &papiKind, dir, pe, m, tolerant, c.papi)
	}
	tasks = scanTask(tasks, &marks[2*n], &overallKind, dir, -1, m, tolerant, c.overall)
	tasks = scanTask(tasks, &marks[2*n+1], &physicalKind, dir, -1, m, tolerant, c.physical)
	tasks = scanTask(tasks, &marks[2*n+2], &segmentsKind, dir, -1, m, tolerant, c.segments)
	runWorkerTasks(opts.poolSize(n), tasks)

	// merge folds marks, in file order, into skipped and the first error.
	skipped := 0
	var err error
	merge := func(marks []shardMark) (found bool) {
		for _, t := range marks {
			if err == nil {
				err = t.err
			}
			if t.found {
				found = true
				skipped += t.skipped
			}
		}
		return found
	}
	var have features
	have.logical = merge(marks[:n])
	merge(marks[n : 2*n])
	have.overall = merge(marks[2*n : 2*n+1])
	have.physical = merge(marks[2*n+1 : 2*n+2])
	if err == nil && !have.physical && tolerant {
		parts := make([]shardMark, n)
		tasks = tasks[:0]
		for pe := 0; pe < n; pe++ {
			tasks = scanTask(tasks, &parts[pe], &physicalPartKind, dir, pe, m, true, c.physical)
		}
		runWorkerTasks(opts.poolSize(n), tasks)
		have.physical = merge(parts)
	}
	merge(marks[2*n+2:])
	if err != nil {
		return have, 0, err
	}
	return have, skipped, nil
}
