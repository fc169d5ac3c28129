package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkExportGolden diffs got against testdata/<name>.golden; -update
// rewrites the file instead.
func checkExportGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file (%d vs %d bytes); run with -update after verifying the change is intended",
			name, len(got), len(want))
	}
}

// goldenExportSet is the deterministic fixture behind the export
// goldens: a hand-built 4-PE trace exercising every record kind, slot
// reuse, FIFO matching across destinations, and an unmatched tail.
// Synthetic rather than run-derived because goroutine scheduling makes
// live runs (and hence their physical streams) nondeterministic under
// -race; the byte-for-byte contract needs fixed input.
func goldenExportSet() *Set {
	s := NewSet(Config{Physical: true}, 4, 2)
	for pe := 0; pe < 4; pe++ {
		var recs []PhysicalRecord
		base := int64(pe*1000 + 1)
		for i := 0; i < 12; i++ {
			kind := []int{0, 1, 1, 2, 1, 2, 2, 0, 1, 2, 1, 0}[i]
			recs = append(recs, PhysicalRecord{
				Kind:     conveyor.SendKind(kind),
				BufBytes: 64 + 32*i,
				SrcPE:    pe,
				DstPE:    (pe + 1 + i%2) % 4,
				Cycles:   base + int64(i*17),
			})
		}
		s.Physical[pe] = recs
	}
	return s
}

// exportedEvents runs ExportPerfetto and returns the document's events,
// whose first must be the clock_domain declaration.
func exportedEvents(t *testing.T, s *Set) (events []map[string]any, domain any) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not a JSON object: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.TraceEvents[0]["name"] != "clock_domain" {
		t.Fatalf("export does not open with the clock_domain metadata: %v", doc.TraceEvents)
	}
	domain = doc.TraceEvents[0]["args"].(map[string]any)["clock_domain"]
	if doc.OtherData["clock_domain"] != domain {
		t.Fatalf("otherData declares domain %v, the leading event %v", doc.OtherData["clock_domain"], domain)
	}
	return doc.TraceEvents, domain
}

// TestExportClockDomainNeverMixed is the regression for the domain-mixing
// bug: the pre-fix exporter emitted virtual-clock microseconds for
// records that carried cycles and fell back to the sequence index for
// records that did not, interleaving two incomparable clocks in one
// stream. The domain must be decided once, for the whole trace, and
// declared in the leading metadata event.
func TestExportClockDomainNeverMixed(t *testing.T) {
	// A trace whose every record carries a clock exports in the cycles
	// domain...
	if _, d := exportedEvents(t, cycleSet(t, 4, 50)); d != "cycles" {
		t.Fatalf("full-clock trace declared domain %v, want cycles", d)
	}

	// ...but one zero-clock record anywhere demotes the entire stream to
	// the sequence domain: walking the events, timestamps must then step
	// through exactly 0..n-1 in stream order (a record's events share its
	// index), with no microsecond-converted stragglers.
	mixed := cycleSet(t, 4, 50)
	mixed.Physical[2][10].Cycles = 0
	events, d := exportedEvents(t, mixed)
	if d != "sequence" {
		t.Fatalf("mixed-clock trace declared domain %v, want sequence", d)
	}
	seq := -1.0
	for _, e := range events {
		if e["ph"] == "M" {
			continue
		}
		if ts := e["ts"].(float64); ts == seq+1 {
			seq = ts
		} else if ts != seq {
			t.Fatalf("sequence-domain ts %v after %v: domains interleaved", ts, seq)
		}
	}
	if seq != 4*50-1 {
		t.Fatalf("sequence-domain timestamps end at %v, want one per record up to %d", seq, 4*50-1)
	}
}

// TestExportCSVReloadIsSequenceDomain: physical.txt carries no clock
// column, so a trace written as CSV and reloaded must export in the
// sequence domain even though the original collector recorded cycles.
func TestExportCSVReloadIsSequenceDomain(t *testing.T) {
	s := cycleSet(t, 4, 30)
	if physicalClockDomain(s) != DomainCycles {
		t.Fatal("fixture should start in the cycles domain")
	}
	s.Config.Format = FormatCSV
	dir := t.TempDir()
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	re, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := physicalClockDomain(re); got != DomainSequence {
		t.Fatalf("CSV reload classified as %s, want sequence", got)
	}
	if _, d := exportedEvents(t, re); d != "sequence" {
		t.Fatalf("CSV reload declared domain %v, want sequence", d)
	}

	// The binary round trip preserves the clocks and the domain.
	s.Config.Format = FormatBinary
	bdir := t.TempDir()
	if err := s.WriteFiles(bdir); err != nil {
		t.Fatal(err)
	}
	rb, err := ReadSet(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if got := physicalClockDomain(rb); got != DomainCycles {
		t.Fatalf("binary reload classified as %s, want cycles", got)
	}
}

// validateTraceEventObject structurally validates one Trace Event
// against the subset of the spec the exporters use: required fields,
// known phases, phase-specific constraints.
func validateTraceEventObject(t *testing.T, e map[string]any) {
	t.Helper()
	name, ok := e["name"].(string)
	if !ok || name == "" {
		t.Fatalf("event without a name: %v", e)
	}
	ph, ok := e["ph"].(string)
	if !ok {
		t.Fatalf("event %q without a phase", name)
	}
	switch ph {
	case "M": // metadata: no ts required
	case "i":
		if _, ok := e["s"].(string); !ok {
			t.Fatalf("instant event %q without a scope", name)
		}
		fallthrough
	case "B", "E", "C", "X":
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("%s event %q without a numeric ts", ph, name)
		}
	default:
		t.Fatalf("event %q has unknown phase %q", name, ph)
	}
	if _, ok := e["pid"].(float64); !ok {
		t.Fatalf("event %q without a numeric pid", name)
	}
}

// perfettoDoc is the exported JSON object's shape.
type perfettoDoc struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]any   `json:"otherData"`
}

// TestExportPerfettoFullModel validates the full-model export end to
// end: a well-formed JSON object, schema-valid events, balanced B/E
// pairs per (pid, tid), process/thread metadata before use, monotone
// counter sampling, and byte-for-byte determinism across exports.
func TestExportPerfettoFullModel(t *testing.T) {
	s := cycleSet(t, 6, 120)
	var buf bytes.Buffer
	if err := s.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not a JSON object: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["clock_domain"] != "cycles" {
		t.Fatalf("otherData clock_domain %v", doc.OtherData["clock_domain"])
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	if doc.TraceEvents[0]["name"] != "clock_domain" {
		t.Fatal("stream does not open with the clock_domain metadata event")
	}

	type key struct{ pid, tid int }
	open := map[key]int{}
	named := map[key]bool{}
	sawCounter := false
	for _, e := range doc.TraceEvents {
		validateTraceEventObject(t, e)
		k := key{int(e["pid"].(float64)), 0}
		if v, ok := e["tid"].(float64); ok {
			k.tid = int(v)
		}
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				named[k] = true
			}
		case "B":
			if !named[k] {
				t.Fatalf("B event on pid %d tid %d before its thread_name", k.pid, k.tid)
			}
			open[k]++
			if open[k] > 1 {
				t.Fatalf("pid %d tid %d holds %d overlapping durations; slots must serialize",
					k.pid, k.tid, open[k])
			}
		case "E":
			open[k]--
			if open[k] < 0 {
				t.Fatalf("pid %d tid %d closed a duration it never opened", k.pid, k.tid)
			}
		case "C":
			sawCounter = true
			args := e["args"].(map[string]any)
			if args["outstanding"].(float64) < 0 || args["bytes_in_flight"].(float64) < 0 {
				t.Fatalf("backlog counter went negative: %v", args)
			}
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Fatalf("pid %d tid %d left %d durations open", k.pid, k.tid, n)
		}
	}
	if !sawCounter {
		t.Fatal("no backlog counter events in a trace full of nonblock sends")
	}

	// Determinism: exporting the same Set twice is byte-identical.
	var again bytes.Buffer
	if err := s.ExportPerfetto(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("ExportPerfetto is not deterministic")
	}
	if !strings.HasPrefix(buf.String(), `{"traceEvents":[`) {
		t.Fatalf("unexpected document prefix %.30q", buf.String())
	}
}

// TestGoldenPerfettoExport pins the full-model export byte for byte:
// event ordering, slot assignment, counter placement, and JSON framing
// are all part of the contract a Perfetto consumer sees. Every event in
// the golden stream must also pass the schema validation.
func TestGoldenPerfettoExport(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenExportSet().ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("golden export is not valid JSON: %v", err)
	}
	for _, e := range doc.TraceEvents {
		validateTraceEventObject(t, e)
	}
	checkExportGolden(t, "perfetto_export", buf.Bytes())
}

// TestPhysicalOnlySetServesRecordConsumers: the two record-level
// consumers draw nothing but physical records, so over the golden
// fixture on disk a ReadPhysical Set exports the same bytes and answers
// window queries with the same fields as the full ReadSet Set.
func TestPhysicalOnlySetServesRecordConsumers(t *testing.T) {
	for _, format := range []Format{FormatCSV, FormatBinary} {
		s := goldenExportSet()
		s.Config.Format = format
		dir := t.TempDir()
		if err := s.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		full, err := ReadSet(dir)
		if err != nil {
			t.Fatal(err)
		}
		phys, _, err := ReadPhysical(dir, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := full.ExportPerfetto(&want); err != nil {
			t.Fatal(err)
		}
		if err := phys.ExportPerfetto(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: export of the physical-only Set differs from the full Set's", format)
		}
		if format == FormatBinary { // the encoding that keeps the clocks
			checkExportGolden(t, "perfetto_export", got.Bytes())
		}
		for _, q := range []Window{{T0: 0, T1: 1 << 40}, {T0: 1000, T1: 2100}, {T0: 0, T1: 1 << 40, LOD: 2}, {T0: 5, T1: 5}} {
			if got, want := QueryWindowSet(phys, q), QueryWindowSet(full, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: QueryWindowSet(%+v) over the physical-only Set:\n got %+v\nwant %+v", format, q, got, want)
			}
		}
	}
}

// TestExportPerfettoUnmatchedSends: sends whose progress record never
// arrived (a run cut short) must still close their duration, flagged.
func TestExportPerfettoUnmatchedSends(t *testing.T) {
	s := NewSet(Config{Physical: true}, 2, 2)
	s.Physical[0] = []PhysicalRecord{
		{Kind: 1, BufBytes: 100, SrcPE: 0, DstPE: 1, Cycles: 10},
		{Kind: 1, BufBytes: 200, SrcPE: 0, DstPE: 1, Cycles: 20},
		{Kind: 2, BufBytes: 100, SrcPE: 0, DstPE: 1, Cycles: 30}, // closes the first
	}
	var buf bytes.Buffer
	if err := s.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	begins, ends, unmatched := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
			if args, ok := e["args"].(map[string]any); ok && args["unmatched"] == true {
				unmatched++
			}
		}
	}
	if begins != 2 || ends != 2 || unmatched != 1 {
		t.Fatalf("B=%d E=%d unmatched=%d, want 2/2/1", begins, ends, unmatched)
	}
}

// TestCyclesToMicros pins the export's one clock conversion: virtual
// cycles at cycleHz (3 GHz) to whole microseconds, truncated.
func TestCyclesToMicros(t *testing.T) {
	for _, c := range []struct{ cycles, us int64 }{
		{0, 0}, {2_999, 0}, {3_000, 1}, {137 * 3_000, 137}, {cycleHz, 1_000_000},
	} {
		if got := cyclesToMicros(c.cycles); got != c.us {
			t.Errorf("cyclesToMicros(%d) = %d µs, want %d", c.cycles, got, c.us)
		}
	}
}
