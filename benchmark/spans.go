package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the layer pass made into a module: which call,
// which ladder rung (or request class) it belongs to, which repetition,
// when it started and ended (ns since the pass began), and the span that
// caused it (-1 for a root). The end-to-end pass never creates one.
type span struct {
	Name   string
	Rung   string
	Rep    int
	Start  int64
	End    int64
	Parent int
}

// recorder keeps the layer pass's spans and exact counts in memory and
// writes them out when the workload ends.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	counts   map[string]float64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its identifier.
func (r *recorder) begin(name, rung string, rep, parent int) int {
	r.spans = append(r.spans, span{Name: name, Rung: rung, Rep: rep, Parent: parent,
		Start: time.Since(r.origin).Nanoseconds(), End: -1})
	return len(r.spans) - 1
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Since(r.origin).Nanoseconds()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// endAfter closes a span d after it began. The rungs that run the real
// program use it with the wall-clock of the one top-level call, so that
// the oracle that follows the call is not inside the span.
func (r *recorder) endAfter(id int, d time.Duration) {
	r.spans[id].End = r.spans[id].Start + d.Nanoseconds()
}

// measure times fn as one span.
func (r *recorder) measure(name, rung string, rep, parent int, fn func()) time.Duration {
	id := r.begin(name, rung, rep, parent)
	fn()
	return r.end(id)
}

// count records an exact count taken at a layer boundary.
func (r *recorder) count(name string, v float64) { r.counts[name] = v }

// durations returns the seconds of every closed span with the given name
// and rung, in repetition order.
func (r *recorder) durations(name, rung string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Rung == rung && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// spanFile is the on-disk form: spans as rows of
// [name, rung, rep, start_ns, end_ns, parent] with names and rungs
// indexed into string tables, because the serve workload records one
// span per request.
type spanFile struct {
	Workload string             `json:"workload"`
	Columns  []string           `json:"columns"`
	Names    []string           `json:"names"`
	Rungs    []string           `json:"rungs"`
	Spans    [][6]int64         `json:"spans"`
	Counts   map[string]float64 `json:"counts"`
}

func (r *recorder) file() spanFile {
	f := spanFile{
		Workload: r.workload,
		Columns:  []string{"name", "rung", "rep", "start_ns", "end_ns", "parent"},
		Counts:   r.counts,
		Spans:    make([][6]int64, len(r.spans)),
	}
	index := func(table *[]string, seen map[string]int64, s string) int64 {
		if i, ok := seen[s]; ok {
			return i
		}
		seen[s] = int64(len(*table))
		*table = append(*table, s)
		return seen[s]
	}
	names, rungs := map[string]int64{}, map[string]int64{}
	for i, s := range r.spans {
		f.Spans[i] = [6]int64{index(&f.Names, names, s.Name), index(&f.Rungs, rungs, s.Rung),
			int64(s.Rep), s.Start, s.End, int64(s.Parent)}
	}
	return f
}

// write stores the spans and counts as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := json.NewEncoder(w).Encode(r.file()); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// readSpans loads a span file back into a recorder, so that the layer
// metrics can be recomputed from the file alone.
func readSpans(path string) (*recorder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r := &recorder{workload: f.Workload, counts: f.Counts, spans: make([]span, len(f.Spans))}
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	for i, row := range f.Spans {
		if row[0] < 0 || int(row[0]) >= len(f.Names) || row[1] < 0 || int(row[1]) >= len(f.Rungs) {
			return nil, fmt.Errorf("%s: span %d indexes outside the string tables", path, i)
		}
		r.spans[i] = span{Name: f.Names[row[0]], Rung: f.Rungs[row[1]], Rep: int(row[2]),
			Start: row[3], End: row[4], Parent: int(row[5])}
	}
	return r, nil
}
