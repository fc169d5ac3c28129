package trace

import (
	"fmt"
	"os"
	"path/filepath"
)

// The one trace pipeline: scan reads any kind's APBF shard,
// writeShardFill writes one, and walk drives scan over a whole trace
// directory. Every reader and the writer in the package are these three
// plus a few lines of their own; the paper's text layout is written and
// read at the rim (paper.go).

// rowFunc admits row i of d's current APBF block - decodes it, checks it
// and hands it on - or returns why it cannot.
type rowFunc func(d *binReader, i int) error

// rowsOf is the row path of run-wide kind k: an APBF row is decoded,
// checked and handed to yield as a record.
func rowsOf[T any](k *kind[T]) func(m *meta, pe int, yield func(T)) rowFunc {
	return func(m *meta, _ int, yield func(T)) rowFunc {
		return func(d *binReader, i int) error {
			rec := k.fromRow(d, i)
			err := k.check(rec, m)
			if err == nil {
				yield(rec)
			}
			return err
		}
	}
}

// scan streams PE pe's APBF shard of kind k without materializing
// records: each row goes to admit. found is false when the file does not
// exist. A row that fails to decode or check is fatal in strict mode; a
// tolerant scan counts it in skipped and carries on, so a torn tail or a
// corrupt record costs only the records it tore. An unreadable header
// counts as one skipped artifact, a torn block as the rows it claimed.
func scan[T any](k *kind[T], dir string, pe int, tolerant bool, admit rowFunc) (found bool, skipped int, err error) {
	f, err := os.Open(filepath.Join(dir, k.binFile(pe)))
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, 0, err
	}
	defer f.Close()
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

// createShard creates the file name in dir and points a pooled
// shardWriter at it.
func createShard(dir, name string) (*os.File, *shardWriter, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	w := shardWriters.Get().(*shardWriter)
	w.start(f)
	return f, w, nil
}

// closeShard writes out what w gathered and closes f - always, so a
// failing write never leaks its handle - and reports the first error.
func closeShard(f *os.File, w *shardWriter) error {
	err := w.finish()
	shardWriters.Put(w)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", f.Name(), err)
	}
	return nil
}

// writeShardFill writes the APBF shard name of kind k in dir; events are
// the run's PAPI event names (the counter columns). A run-wide kind's
// rows are at(0), at(1), ..., at(n-1), asked for in that order; a send
// kind, which has no row codec, has its blocks filled column-wise:
// fill(cols, lo), lo the block's first row.
func writeShardFill[T any](k *kind[T], dir, name string, events []string, n int, at func(i int) T,
	fill func(cols [][]int64, lo int)) error {
	f, w, err := createShard(dir, name)
	if err != nil {
		return err
	}
	ncols := k.cols
	if k.counters {
		ncols += len(events)
	}
	w.header(k.binKind, ncols)
	if k.toRow == nil {
		for lo := 0; lo < n; lo += binBlockRows {
			fill(w.block(min(binBlockRows, n-lo)), lo)
			w.flushBlock()
		}
		return closeShard(f, w)
	}
	row := make([]int64, ncols)
	for i := 0; i < n; i++ {
		if str := k.toRow(at(i), row); k.hasStr {
			w.pushStr(str, row...)
		} else {
			w.push(row...)
		}
	}
	return closeShard(f, w)
}

// artifacts are the names of everything a trace directory holds of its
// trace: both layouts of every kind, and the time index built over it.
var artifacts = []string{
	"PE*_send.bin", "PE*_PAPI.bin", overallBinFile, physicalBinFile, segmentsBinFile,
	"PE*_send.csv", "PE*_PAPI.csv", overallFile, physicalFile, segmentsFile,
	timeIndexFile,
}

// dropStale removes every trace artifact dir holds that this write does
// not produce (keep): a shard of a kind, a PE or a layout the write leaves
// out would otherwise be read back with it, and physical.idx describes the
// physical trace it was built over, whose size a rewrite can match. One
// listing spares a rewrite a removal per shard.
func dropStale(dir string, keep map[string]bool) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	names, err := f.Readdirnames(-1)
	f.Close()
	if err != nil {
		return fmt.Errorf("trace: listing %s: %w", dir, err)
	}
	for _, name := range names {
		if keep[name] {
			continue
		}
		for _, pattern := range artifacts {
			if ok, _ := filepath.Match(pattern, name); ok {
				if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
					return fmt.Errorf("trace: %w", err)
				}
				break
			}
		}
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
// makes f's yield, got on the worker about to scan, into what admits the
// shard's rows: rowsOf, or a send kind's packer.
func scanTask[T, Y any](tasks []func(worker int), mark *shardMark, k *kind[T], dir string, pe int, m *meta, tolerant bool,
	f func(worker, pe int) Y, takes func(m *meta, pe int, yield Y) rowFunc) []func(worker int) {
	if f == nil {
		return tasks
	}
	return append(tasks, func(w int) {
		mark.found, mark.skipped, mark.err = scan(k, dir, pe, tolerant, takes(m, pe, f(w, pe)))
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
