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

// The one trace pipeline: scan reads any kind's shard in either encoding,
// sink writes one, and walk drives scan over a whole trace directory.
// Every reader and writer in the package is one of these three plus a few
// lines of its own.

// openShard opens the first existing candidate path and sniffs whether
// its content is the binary format (by magic, so auto-detection works
// regardless of file extension) at offset 0, leaving the file's offset
// there. Returns an os.IsNotExist-able error when no candidate exists.
func openShard(candidates ...string) (*os.File, bool, error) {
	var lastErr error = os.ErrNotExist
	for _, p := range candidates {
		f, err := os.Open(p)
		if err != nil {
			lastErr = err
			continue
		}
		head := make([]byte, len(binMagic))
		n, err := f.ReadAt(head, 0)
		if err != nil && err != io.EOF {
			f.Close()
			return nil, false, err
		}
		return f, n == len(head) && string(head) == binMagic, nil
	}
	return nil, false, lastErr
}

// rowFunc admits row i of d's current APBF block - decodes it, checks it
// and hands it on - or returns why it cannot.
type rowFunc func(d *binReader, i int) error

// rowsOf is the row path of kind k for PE pe's shard: a CSV line or an
// APBF row alike is decoded, checked and handed to yield as a record.
func rowsOf[T any](k *kind[T]) func(m *meta, pe int, yield func(T)) (func(T), rowFunc) {
	return func(m *meta, pe int, yield func(T)) (func(T), rowFunc) {
		return yield, func(d *binReader, i int) error {
			rec := k.fromRow(d, i)
			err := k.check(rec, m, pe)
			if err == nil {
				yield(rec)
			}
			return err
		}
	}
}

// scan streams PE pe's shard of kind k without materializing records: it
// resolves the binary/CSV candidates and sniffs the format. A CSV line is
// parsed, checked and handed to yield; an APBF row goes to admit. A
// yielded record's Counters alias the scan's scratch and are valid only
// until yield returns: a consumer that keeps them copies them. found is
// false when neither file exists. A record that fails to decode or check
// is fatal in strict mode; a tolerant scan counts it in skipped and
// carries on, so a torn tail or a corrupt line costs only the records it
// tore. An unreadable APBF header counts as one skipped artifact, a torn
// block as the rows it claimed.
func scan[T any](k *kind[T], dir string, pe int, m *meta, tolerant bool, yield func(T), admit rowFunc) (found bool, skipped int, err error) {
	f, isBin, err := openShard(filepath.Join(dir, k.binFile(pe)), filepath.Join(dir, k.csvFile(pe)))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, 0, err
	}
	defer f.Close()
	if isBin {
		d := binReaders.Get().(*binReader)
		defer binReaders.Put(d)
		d.reset(f, d.data[:0], 0, 0)
		ok, err := d.header(f.Name(), k.binKind, k.minCols)
		if err != nil && tolerant {
			return true, 1, nil
		}
		if err != nil || !ok { // !ok: an empty file holds no records
			return true, 0, err
		}
		lost, err := d.eachBlock(k.hasStr, func(b block) error {
			for i := 0; i < b.rows; i++ {
				if err := admit(d, i); err != nil && !tolerant {
					return err
				} else if err != nil {
					skipped++
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
			err = k.check(rec, m, pe)
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
// lines or APBF blocks, both gathered in w's buffer. Write errors are
// sticky in w and surface from close.
type sink[T any] struct {
	k      *kind[T]
	f      *os.File
	w      *shardWriter
	binary bool
	events []string
	row    []int64 // APBF row scratch
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
	s := &sink[T]{k: k, f: f, w: shardWriters.Get().(*shardWriter), binary: binary, events: events}
	s.w.start(f)
	if binary {
		ncols := k.cols
		if k.counters {
			ncols += len(events)
		}
		s.row = make([]int64, ncols)
		s.w.header(k.binKind, ncols)
	}
	return s, nil
}

func (s *sink[T]) put(r T) {
	if !s.binary {
		s.w.buf = s.k.appendCSV(s.w.buf, r, s.events)
		s.w.gathered()
	} else if str := s.k.toRow(r, s.row); s.k.hasStr {
		s.w.pushStr(str, s.row...)
	} else {
		s.w.push(s.row...)
	}
}

// close finishes the last block, flushes and closes the file - always,
// so a failing sink never leaks its handle - and reports the first error.
func (s *sink[T]) close() error {
	err := s.w.finish()
	shardWriters.Put(s.w)
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

// writeShardFill writes PE pe's shard of kind k, in every encoding of
// format: the n rows at(0), at(1), ..., at(n-1), asked for in that order,
// except that a send kind's APBF blocks, which have no row codec, are
// filled column-wise: fill(cols, lo), lo the block's first row.
func writeShardFill[T any](k *kind[T], dir string, pe int, format Format, events []string, n int, at func(i int) T,
	fill func(cols [][]int64, lo int)) error {
	out, err := openSinks(k, dir, pe, format, events)
	if err != nil {
		return err
	}
	rowSinks := out
	if k.toRow == nil && format.binary() { // encodings puts the APBF sink last
		bin := out[len(out)-1]
		for lo := 0; lo < n; lo += binBlockRows {
			fill(bin.w.block(min(binBlockRows, n-lo)), lo)
			bin.w.flushBlock()
		}
		rowSinks = out[:len(out)-1]
	}
	for i := 0; len(rowSinks) > 0 && i < n; i++ {
		rowSinks.put(at(i))
	}
	return out.close()
}

// dropOtherEncoding removes the trace shards dir holds in the encoding
// format does not write (none for FormatBoth): readers prefer a .bin to a
// .csv, so an earlier write's shard would shadow this write's or stand in
// for one it does not write. One listing spares a rewrite in the same
// encoding a removal per shard.
func dropOtherEncoding(dir string, format Format) error {
	if format == FormatBoth {
		return nil
	}
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	names, err := f.Readdirnames(-1)
	f.Close()
	if err != nil {
		return fmt.Errorf("trace: listing %s: %w", dir, err)
	}
	other := []string{"PE*_send.csv", "PE*_PAPI.csv", overallFile, physicalFile, segmentsFile}
	if !format.binary() {
		other = []string{"PE*_send.bin", "PE*_PAPI.bin", overallBinFile, physicalBinFile, segmentsBinFile}
	}
	for _, name := range names {
		for _, pattern := range other {
			if ok, _ := filepath.Match(pattern, name); ok {
				if err := removeStale(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// removeStale removes path if it exists.
func removeStale(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// rows is writeShardFill's (n, at) over the concatenation of per-PE slices,
// in PE order: the run-wide shards' rows. at must be asked for rows in
// order, as writeShardFill does.
func rows[T any](per ...[]T) (n int, at func(i int) T) {
	for _, recs := range per {
		n += len(recs)
	}
	pe, base := 0, 0
	return n, func(i int) T {
		for i-base >= len(per[pe]) {
			base += len(per[pe])
			pe++
		}
		return per[pe][i-base]
	}
}

// consumer is what a reader plugs into walk: for each kind, a factory
// the walker calls once per shard - on the worker about to scan it - for
// the function that receives the shard's records, the send kinds' in the
// packed form a Set holds. pe is -1 for the run-wide files; walk opens no
// file of a kind whose factory is nil. Shards scan concurrently, so a
// yield may only touch state owned by its shard (a result slot) or by its
// worker (a partial accumulator that merges commutatively).
type consumer struct {
	logical  func(worker, pe int) func(LogicalSend)
	papi     func(worker, pe int) func(PAPISend, []int64)
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
// or nothing, when the consumer has no factory f for the kind. takes
// makes f's yield, got on the worker about to scan, into what takes the
// shard's CSV rows and its APBF rows: rowsOf, or a send kind's packer.
func scanTask[T, Y any](tasks []func(worker int), mark *shardMark, k *kind[T], dir string, pe int, m *meta, tolerant bool,
	f func(worker, pe int) Y, takes func(m *meta, pe int, yield Y) (func(T), rowFunc)) []func(worker int) {
	if f == nil {
		return tasks
	}
	return append(tasks, func(w int) {
		rows, admit := takes(m, pe, f(w, pe))
		mark.found, mark.skipped, mark.err = scan(k, dir, pe, m, tolerant, rows, admit)
	})
}

// walk is the directory walker behind every reader. It owns the task
// layout (one task per per-PE file and per shared file of the kinds the
// consumer takes, on a pool of opts.poolSize workers), the file order -
// logical PE 0..n-1, PAPI PE 0..n-1, overall, physical, segments - in
// which marks merge, and with it the guarantees the readers share: the
// skipped total, and the error a sequential read would hit first, are
// identical for every worker count.
func walk(dir string, m *meta, opts ReadOptions, c consumer) (features, int, error) {
	n, tolerant := m.npes, opts.Tolerant
	marks := make([]shardMark, 2*n+3)
	tasks := make([]func(worker int), 0, len(marks))
	for pe := 0; pe < n; pe++ {
		tasks = scanTask(tasks, &marks[pe], &logicalKind, dir, pe, m, tolerant, c.logical, logicalSends)
	}
	for pe := 0; pe < n; pe++ {
		tasks = scanTask(tasks, &marks[n+pe], &papiKind, dir, pe, m, tolerant, c.papi, papiSends)
	}
	tasks = scanTask(tasks, &marks[2*n], &overallKind, dir, -1, m, tolerant, c.overall, rowsOf(&overallKind))
	tasks = scanTask(tasks, &marks[2*n+1], &physicalKind, dir, -1, m, tolerant, c.physical, rowsOf(&physicalKind))
	tasks = scanTask(tasks, &marks[2*n+2], &segmentsKind, dir, -1, m, tolerant, c.segments, rowsOf(&segmentsKind))
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
	merge(marks[2*n+2:])
	if err != nil {
		return have, 0, err
	}
	return have, skipped, nil
}
