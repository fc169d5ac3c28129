package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"actorprof/internal/blocks"
	"actorprof/internal/papi"
)

// MetaFile holds the run parameters; its presence is what marks a
// directory as a trace directory.
const MetaFile = "actorprof_meta.txt"

// ReadOptions tunes ReadSummary / ReadPhysical.
type ReadOptions struct {
	// Tolerant makes malformed records (a torn tail, a corrupt row) count
	// as skipped instead of fatal. The default (false) is ReadSet's
	// strict behavior.
	Tolerant bool
	// Workers bounds the parse worker pool. <= 0 means GOMAXPROCS. The
	// result is identical for every worker count: each per-PE file is one
	// task writing into its own slot, and slots merge in file order.
	Workers int
}

// poolSize is the worker count a walk over an npes-PE directory uses:
// never more than it has tasks.
func (o ReadOptions) poolSize(npes int) int {
	workers := o.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if tasks := 2*npes + 3; workers > tasks {
		workers = tasks
	}
	return workers
}

// WriteFiles writes every enabled trace to dir as APBF, the binary
// columnar files the readers open (per-PE PEi_send.bin and PEi_PAPI.bin,
// shared overall.bin/physical.bin/segments.bin), and - when Config.Format
// is FormatCSV - the paper's text layout beside them (PEi_send.csv, ...,
// physical.txt; paper.go). It first removes every other trace artifact dir
// holds: shards of kinds, PEs or layouts this write leaves out, and the
// time index. actorprof_meta.txt (run parameters: number of PEs, PEs per
// node, PAPI event names) is always text; the readers need it first.
// Shards are written in parallel.
func (s *Set) WriteFiles(dir string) error {
	if s.Config.Aggregate {
		return fmt.Errorf("trace: WriteFiles needs raw records, but the set was collected with Config.Aggregate (only matrices were kept)")
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: creating output dir: %w", err)
	}
	if err := s.writeMeta(dir); err != nil {
		return err
	}
	w := &dirWriter{dir: dir, events: eventNames(s.Config.PAPIEvents), paper: s.Config.Format == FormatCSV, keep: map[string]bool{}}
	var none sealedPE
	for pe := 0; pe < s.NumPEs; pe++ {
		sealed := &none // unless a collector recorded the Set
		if s.memo != nil && pe < len(s.memo.sealed) {
			sealed = &s.memo.sealed[pe]
		}
		if s.Config.Logical {
			addShard(w, &logicalKind, pe, func() (int, func(int) LogicalRecord) {
				return len(s.Logical[pe]), func(i int) LogicalRecord { return s.LogicalRecordAt(pe, i) }
			}, &sealed.logical, func(cols [][]int64, lo int) { s.logicalColumns(pe, cols, lo) })
		}
		if len(w.events) > 0 {
			addShard(w, &papiKind, pe, func() (int, func(int) PAPIRecord) {
				return len(s.PAPI[pe]), func(i int) PAPIRecord { return s.PAPIRecordAt(pe, i) }
			}, &sealed.papi, func(cols [][]int64, lo int) { s.papiColumns(pe, cols, lo) })
		}
	}
	if s.Config.Physical {
		addShard(w, &physicalKind, 0, func() (int, func(int) PhysicalRecord) { return rows(s.Physical...) }, nil, nil)
	}
	if s.Config.Overall {
		addShard(w, &overallKind, 0, func() (int, func(int) OverallRecord) { return rows(s.OverallRecords()) }, nil, nil)
	}
	for _, recs := range s.Segments {
		if len(recs) > 0 {
			addShard(w, &segmentsKind, 0, func() (int, func(int) SegmentRecord) { return rows(s.Segments...) }, nil, nil)
			break
		}
	}
	if err := dropStale(dir, w.keep); err != nil {
		return err
	}
	errs := make([]error, len(w.jobs))
	tasks := make([]func(worker int), len(w.jobs))
	for i := range w.jobs {
		tasks[i] = func(int) { errs[i] = w.jobs[i]() }
	}
	runWorkerTasks(defaultWorkers(), tasks)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dirWriter is what WriteFiles gathers before it writes: the jobs that
// write the shards, one per file, and the files' names - what dropStale
// keeps.
type dirWriter struct {
	dir    string
	events []string
	paper  bool
	jobs   []func() error
	keep   map[string]bool
}

// addShard adds the jobs that write PE pe's shard of kind k: its APBF
// file and, for FormatCSV, its file in the paper's layout. src hands each
// job its own (n, at), since rows' at is stateful. A send kind's APBF
// file is the log its collector sealed, written as it is, or else is
// sealed from the Set's packed records: fill fills a block's columns.
func addShard[T any](w *dirWriter, k *kind[T], pe int, src func() (int, func(int) T), sealed *blocks.Log, fill func(cols [][]int64, lo int)) {
	bin := k.binFile(pe)
	w.keep[bin] = true
	w.jobs = append(w.jobs, func() error {
		if sealed != nil && sealed.Len() > 0 {
			return writeSealed(w.dir, bin, func(f io.Writer) error { return sealed.WriteFile(f, k.binKind, k.width(len(w.events))) })
		}
		n, at := src()
		return writeShardFill(k, w.dir, bin, w.events, n, at, fill)
	})
	if w.paper {
		text := k.csvFile(pe)
		w.keep[text] = true
		w.jobs = append(w.jobs, func() error {
			n, at := src()
			return writePaper(k, w.dir, text, w.events, n, at)
		})
	}
}

func eventNames(events []papi.Event) []string {
	names := make([]string, len(events))
	for i, ev := range events {
		names[i] = ev.String()
	}
	return names
}

func (s *Set) writeMeta(dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "num_PEs %d\n", s.NumPEs)
	fmt.Fprintf(&b, "PEs_per_node %d\n", s.PEsPerNode)
	if len(s.Config.PAPIEvents) > 0 {
		fmt.Fprintf(&b, "papi_events %s\n", strings.Join(eventNames(s.Config.PAPIEvents), ","))
	}
	fmt.Fprintf(&b, "logical_sample %d\n", s.Config.LogicalSample)
	if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte(b.String()), 0o666); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadSet loads a trace directory written by WriteFiles back into a Set,
// from its APBF files. Missing optional files simply leave the
// corresponding feature disabled, so the visualizer can work with partial
// trace directories. Every record must decode and check: a malformed one
// is an error. A directory that holds only the paper's text layout is
// ImportPaper's.
func ReadSet(dir string) (*Set, error) {
	s, _, err := readSet(dir, ReadOptions{})
	return s, err
}

// cell holds the records one shard scan collects. A per-PE cell is its own
// allocation: shards scan concurrently and append per record, so slice
// headers packed into one array would bounce a cache line between workers.
type cell[T any] struct{ recs []T }

// add is the yield that fills c.
func (c *cell[T]) add() func(T) { return func(r T) { c.recs = append(c.recs, r) } }

// shardRows estimates how many records PE pe's shard of kind k holds from
// its on-disk size and the run's nEvents counter columns, so that a
// collecting reader allocates once instead of growing through append
// doublings (over-estimating slightly is fine). It is 0 for the kinds
// that declare no bytes-per-record figure.
func shardRows[T any](k *kind[T], dir string, pe, nEvents int) int {
	if k.binRecBytes == 0 {
		return 0
	}
	if !k.counters {
		nEvents = 0
	}
	if fi, err := os.Stat(filepath.Join(dir, k.binFile(pe))); err == nil {
		return int(fi.Size())/(k.binRecBytes+nEvents) + 1
	}
	return 0
}

// newCell returns an empty cell with room for n records (shardRows).
func newCell[T any](n int) *cell[T] {
	c := &cell[T]{}
	if n > 0 {
		c.recs = make([]T, 0, n)
	}
	return c
}

// addRun is the yield that appends a send block's run to c.
func (c *cell[T]) addRun(run []T) { c.recs = append(c.recs, run...) }

// papiCell collects one PE's PAPI runs the way a Set holds them: a
// PAPISend per record and its k counter words in one column.
type papiCell struct {
	recs     []PAPISend
	counters []int64
}

func newPAPICell(n, k int) *papiCell {
	c := &papiCell{}
	if n > 0 {
		c.recs, c.counters = make([]PAPISend, 0, n), make([]int64, 0, n*k)
	}
	return c
}

func (c *papiCell) add(run []PAPISend, counters []int64) {
	c.recs, c.counters = append(c.recs, run...), append(c.counters, counters...)
}

// filePhysical files physical records under their initiating PEs in s,
// in file order within a PE. It sorts recs by source (stably: the file's
// order is already that, PE by PE) and files each PE's run as a capped
// view of recs, so the records are not copied again.
func filePhysical(s *Set, recs []PhysicalRecord) {
	slices.SortStableFunc(recs, func(a, b PhysicalRecord) int { return cmp.Compare(a.SrcPE, b.SrcPE) })
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].SrcPE == recs[0].SrcPE {
			n++
		}
		s.Physical[recs[0].SrcPE], recs = recs[:n:n], recs[n:]
	}
}

// ReadPhysical loads only a directory's physical trace and opens no other
// record file: it is what the record-level consumers (the Perfetto
// export, the full-scan window query) draw. The Set has
// what the meta file declares, Config.Physical and Physical filled;
// skipped is the physical shards' share alone.
func ReadPhysical(dir string, opts ReadOptions) (*Set, int, error) {
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, 0, err
	}
	physical := newCell[PhysicalRecord](shardRows(&physicalKind, dir, -1, 0))
	have, skipped, err := walk(dir, m, opts, consumer{
		physical: func(_, _ int) func(PhysicalRecord) { return physical.add() },
	})
	if err != nil {
		return nil, 0, err
	}
	s := NewSet(m.config(), m.npes, m.perNode)
	s.Config.Physical = have.physical
	filePhysical(s, physical.recs)
	return s, skipped, nil
}

// readSet is ReadSet with explicit options: the walker plus collecting
// yields. Each shard appends to a cell it alone owns and the cells are
// read only after the walk, so for every worker count (including 1) it
// returns an identical Set, identical skipped count, and - on malformed
// input - the same error a sequential read would report first.
func readSet(dir string, opts ReadOptions) (*Set, int, error) {
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, 0, err
	}
	logical := make([]*cell[LogicalSend], m.npes)
	papi := make([]*papiCell, m.npes)
	physical := newCell[PhysicalRecord](shardRows(&physicalKind, dir, -1, 0))
	var overall cell[OverallRecord]
	var segments cell[SegmentRecord]
	have, skipped, err := walk(dir, m, opts, consumer{
		// A send row is held packed: checkSend admitted it only if the
		// packing loses nothing.
		logical: func(_, pe int) func([]LogicalSend) {
			logical[pe] = newCell[LogicalSend](shardRows(&logicalKind, dir, pe, 0))
			return logical[pe].addRun
		},
		papi: func(_, pe int) func([]PAPISend, []int64) {
			k := len(m.events)
			papi[pe] = newPAPICell(shardRows(&papiKind, dir, pe, k), k)
			return papi[pe].add
		},
		overall:  func(_, _ int) func(OverallRecord) { return overall.add() },
		physical: func(_, _ int) func(PhysicalRecord) { return physical.add() },
		segments: func(_, _ int) func(SegmentRecord) { return segments.add() },
	})
	if err != nil {
		return nil, 0, err
	}
	s := NewSet(m.config(), m.npes, m.perNode)
	s.Config.Logical, s.Config.Overall, s.Config.Physical = have.logical, have.overall, have.physical
	for pe := range logical {
		s.Logical[pe], s.PAPI[pe], s.PAPICounters[pe] = logical[pe].recs, papi[pe].recs, papi[pe].counters
		s.LogicalSendCount[pe] = int64(len(s.Logical[pe])) * int64(m.sample)
	}
	if have.overall {
		s.Overall = normalizeOverall(overall.recs)
	}
	filePhysical(s, physical.recs)
	for _, r := range segments.recs {
		s.Segments[r.PE] = append(s.Segments[r.PE], r)
	}
	return s, skipped, nil
}

// meta is the parsed actorprof_meta.txt: the run parameters every reader
// needs before it can open a shard.
type meta struct {
	npes, perNode, sample int
	events                []papi.Event
}

func (m *meta) config() Config {
	return Config{PAPIEvents: m.events, LogicalSample: m.sample}.withDefaults()
}

func readMeta(path string) (*meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: reading meta: %w", err)
	}
	defer f.Close()
	m := &meta{perNode: 1, sample: 1}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		switch fields[0] {
		case "num_PEs":
			m.npes, err = strconv.Atoi(fields[1])
		case "PEs_per_node":
			m.perNode, err = strconv.Atoi(fields[1])
		case "logical_sample":
			m.sample, err = strconv.Atoi(fields[1])
		case "papi_events":
			for _, name := range strings.Split(fields[1], ",") {
				ev, e := papi.EventByName(name)
				if e != nil {
					return nil, e
				}
				m.events = append(m.events, ev)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace: bad meta line %q: %w", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m.npes <= 0 {
		return nil, fmt.Errorf("trace: meta file %s has no num_PEs", path)
	}
	if m.npes > maxReadPEs {
		return nil, fmt.Errorf("trace: meta file %s claims %d PEs (max %d); refusing to allocate",
			path, m.npes, maxReadPEs)
	}
	if m.perNode <= 0 || m.perNode > m.npes {
		return nil, fmt.Errorf("trace: meta file %s has PEs_per_node %d for %d PEs", path, m.perNode, m.npes)
	}
	if m.sample <= 0 {
		m.sample = 1 // pre-normalization configs wrote 0 for "keep all"
	}
	return m, nil
}

// maxReadPEs caps the PE count a meta file may claim: the per-PE slices
// ReadSet allocates (and the per-PE files it probes) scale with it, so a
// corrupt meta line must not drive the reader into huge allocations.
const maxReadPEs = 1 << 20

// normalizeOverall dedupes overall records by PE (last record wins, as
// the seed's map-based reader behaved) and sorts by PE.
func normalizeOverall(recs []OverallRecord) []OverallRecord {
	byPE := map[int]OverallRecord{}
	for _, r := range recs {
		byPE[r.PE] = r
	}
	out := make([]OverallRecord, 0, len(byPE))
	for _, r := range byPE {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PE < out[j].PE })
	return out
}
