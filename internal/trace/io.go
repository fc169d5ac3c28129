package trace

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"actorprof/internal/papi"
)

// File naming, matching the paper's formats.
func logicalFile(pe int) string { return fmt.Sprintf("PE%d_send.csv", pe) }
func papiFile(pe int) string    { return fmt.Sprintf("PE%d_PAPI.csv", pe) }

const (
	overallFile  = "overall.txt"
	physicalFile = "physical.txt"
	segmentsFile = "segments.txt"
	// MetaFile holds the run parameters; its presence is what marks a
	// directory as a trace directory.
	MetaFile = "actorprof_meta.txt"
)

// ReadOptions tunes ReadSetOptions / ReadSummary / ReadPhysical.
type ReadOptions struct {
	// Tolerant makes malformed lines (the torn tail of a file a streaming
	// collector is still appending to) count as skipped instead of fatal,
	// and merges unassembled physical .part files. This is ReadSetLive's
	// behavior; the default (false) is ReadSet's strict behavior.
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

// WriteFiles writes every enabled trace to dir in the formats selected
// by Config.Format: the paper's text formats (per-PE PEi_send.csv and
// PEi_PAPI.csv, shared overall.txt/physical.txt/segments.txt), the
// binary columnar *.bin siblings, or both. actorprof_meta.txt (run
// parameters: number of PEs, PEs per node, PAPI event names) is always
// text; the readers need it first. Shards are written in parallel.
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
	format, events := s.Config.Format, eventNames(s.Config.PAPIEvents)
	var jobs []func() error
	for pe := 0; pe < s.NumPEs; pe++ {
		pe := pe
		if s.Config.Logical {
			jobs = append(jobs, func() error { return writeShard(&logicalKind, dir, pe, format, events, s.Logical[pe]) })
		}
		if len(events) > 0 {
			jobs = append(jobs, func() error { return writeShard(&papiKind, dir, pe, format, events, s.PAPI[pe]) })
		}
	}
	if s.Config.Physical {
		jobs = append(jobs, func() error { return writeShard(&physicalKind, dir, 0, format, events, s.Physical...) })
	}
	jobs = append(jobs, s.summaryJobs(dir)...)
	errs := make([]error, len(jobs))
	tasks := make([]func(worker int), len(jobs))
	for i := range jobs {
		i := i
		tasks[i] = func(int) { errs[i] = jobs[i]() }
	}
	runWorkerTasks(defaultWorkers(), tasks)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// summaryJobs are the writes of the O(PEs) artifacts a streaming
// collector also keeps in memory, so WriteFiles and Finalize share them:
// the overall breakdown (sorted by PE) and the named segments.
func (s *Set) summaryJobs(dir string) []func() error {
	format, events := s.Config.Format, eventNames(s.Config.PAPIEvents)
	var jobs []func() error
	if s.Config.Overall {
		jobs = append(jobs, func() error { return writeShard(&overallKind, dir, 0, format, events, s.OverallRecords()) })
	}
	for _, recs := range s.Segments {
		if len(recs) > 0 {
			jobs = append(jobs, func() error { return writeShard(&segmentsKind, dir, 0, format, events, s.Segments...) })
			break
		}
	}
	return jobs
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

// ReadSet loads a trace directory written by WriteFiles back into a Set.
// Missing optional files simply leave the corresponding feature disabled,
// so the visualizer can work with partial trace directories. Every line
// must parse: a malformed record is an error. For directories a streaming
// collector is still writing into, use ReadSetLive instead.
func ReadSet(dir string) (*Set, error) {
	s, _, err := ReadSetOptions(dir, ReadOptions{})
	return s, err
}

// ReadSetLive loads a trace directory that may still be being written by
// a streaming collector. Unlike ReadSet it tolerates the artifacts of a
// run in progress: malformed lines (the torn tail a concurrent writer
// has only partially flushed) are skipped rather than fatal, and when
// physical.txt has not been assembled yet the per-PE physical.PE*.part
// files are merged in its place. It returns the number of lines skipped;
// a nonzero count on a *finished* directory indicates corruption that
// ReadSet would have reported as an error.
func ReadSetLive(dir string) (*Set, int, error) {
	return ReadSetOptions(dir, ReadOptions{Tolerant: true})
}

// cell holds the records one shard scan collects. A per-PE cell is its own
// allocation: shards scan concurrently and append per record, so slice
// headers packed into one array would bounce a cache line between workers.
type cell[T any] struct{ recs []T }

// add is the yield that fills c.
func (c *cell[T]) add() func(T) { return func(r T) { c.recs = append(c.recs, r) } }

// newCell returns an empty cell for PE pe's shard of kind k. For the
// kinds that declare a bytes-per-record figure it is sized up front from
// the shard's on-disk size, so a big shard allocates once instead of
// growing through append doublings (over-estimating slightly is fine).
func newCell[T any](k *kind[T], dir string, pe int) *cell[T] {
	c := &cell[T]{}
	if k.binRecBytes > 0 {
		if fi, err := os.Stat(filepath.Join(dir, k.binFile(pe))); err == nil {
			c.recs = make([]T, 0, int(fi.Size())/k.binRecBytes+1)
		} else if fi, err := os.Stat(filepath.Join(dir, k.csvFile(pe))); err == nil {
			c.recs = make([]T, 0, int(fi.Size())/k.csvRecBytes+1)
		}
	}
	return c
}

// physicalCells collects the physical kind's shards: cell 0 is the
// assembled file, cell 1+pe PE pe's live part (small, and scanned only in
// the tolerant fallback). yield is the consumer factory that fills them.
type physicalCells []cell[PhysicalRecord]

func (p physicalCells) yield(_, pe int) func(PhysicalRecord) { return p[1+pe].add() }

// fill files the collected records under their initiating PEs in s.
func (p physicalCells) fill(s *Set) {
	for i := range p {
		for _, r := range p[i].recs {
			s.Physical[r.SrcPE] = append(s.Physical[r.SrcPE], r)
		}
	}
}

// ReadPhysical loads only a directory's physical trace - the assembled
// file or, in a tolerant read of a live run, the per-PE .part shards -
// and opens no other record file: it is what the record-level consumers
// (the Perfetto export, the full-scan window query) draw. The Set has
// what the meta file declares, Config.Physical and Physical filled;
// skipped is the physical shards' share alone.
func ReadPhysical(dir string, opts ReadOptions) (*Set, int, error) {
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, 0, err
	}
	physical := make(physicalCells, 1+m.npes)
	have, skipped, err := walk(dir, m, opts, consumer{physical: physical.yield})
	if err != nil {
		return nil, 0, err
	}
	s := NewSet(m.config(), m.npes, m.perNode)
	s.Config.Physical = have.physical
	physical.fill(s)
	return s, skipped, nil
}

// ReadSetOptions is ReadSet/ReadSetLive with explicit options: the
// walker plus collecting yields. Each shard appends to a cell it alone
// owns and the cells are read only after the walk, so for every worker
// count (including 1) it returns an identical Set, identical skipped
// count, and - on malformed input - the same error a sequential read
// would report first.
func ReadSetOptions(dir string, opts ReadOptions) (*Set, int, error) {
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, 0, err
	}
	logical := make([]*cell[LogicalRecord], m.npes)
	papi := make([]*cell[PAPIRecord], m.npes)
	physical := make(physicalCells, 1+m.npes)
	var overall cell[OverallRecord]
	var segments cell[SegmentRecord]
	have, skipped, err := walk(dir, m, opts, consumer{
		logical: func(_, pe int) func(LogicalRecord) {
			logical[pe] = newCell(&logicalKind, dir, pe)
			return logical[pe].add()
		},
		papi: func(_, pe int) func(PAPIRecord) {
			papi[pe] = newCell(&papiKind, dir, pe)
			return papi[pe].add()
		},
		overall:  func(_, _ int) func(OverallRecord) { return overall.add() },
		physical: physical.yield,
		segments: func(_, _ int) func(SegmentRecord) { return segments.add() },
	})
	if err != nil {
		return nil, 0, err
	}
	s := NewSet(m.config(), m.npes, m.perNode)
	s.Config.Logical, s.Config.Overall, s.Config.Physical = have.logical, have.overall, have.physical
	for pe := range logical {
		s.Logical[pe], s.PAPI[pe] = logical[pe].recs, papi[pe].recs
		s.LogicalSendCount[pe] = int64(len(s.Logical[pe])) * int64(m.sample)
	}
	if have.overall {
		s.Overall = normalizeOverall(overall.recs)
	}
	physical.fill(s)
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
