package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"actorprof/internal/conveyor"
)

// Byte-level CSV codecs for the hot per-record trace files. The seed
// implementation parsed every line through strings.Split + TrimSpace +
// strconv.ParseInt (three allocations per line before the record is even
// built) and wrote through fmt.Fprintf (one reflection walk per record).
// At the trace sizes the paper worries about (Section VI: traces reach
// the order of 100 GB) that per-line garbage dominates the whole
// parse-aggregate-plot pipeline, so these codecs parse and append
// records straight from/to byte slices, reusing per-shard scratch:
// steady-state cost is ~0 allocations per line (record-slice growth
// amortizes, error formatting allocates only on the error path).

// asciiSpace mirrors the characters strings.TrimSpace removes for ASCII
// input (trace files are pure ASCII).
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// trimSpace returns b without leading/trailing ASCII whitespace. It
// never allocates.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// parseInt parses a decimal int64 from b (optionally signed, optionally
// space-padded) without allocating. It accepts exactly what the seed's
// strconv.ParseInt(strings.TrimSpace(s), 10, 64) accepted.
func parseInt(b []byte) (int64, error) {
	b = trimSpace(b)
	if len(b) == 0 {
		return 0, errEmptyInt
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, errEmptyInt
		}
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadDigit
		}
		d := uint64(c - '0')
		if v > (1<<63-1)/10 {
			return 0, errIntRange
		}
		v = v*10 + d
	}
	if neg {
		if v > 1<<63 {
			return 0, errIntRange
		}
		return -int64(v), nil
	}
	if v > 1<<63-1 {
		return 0, errIntRange
	}
	return int64(v), nil
}

var (
	errEmptyInt = fmt.Errorf("empty integer field")
	errBadDigit = fmt.Errorf("invalid digit")
	errIntRange = fmt.Errorf("value out of range")
)

// parseIntsComma splits line on commas and parses every field into out
// (reused across calls: pass out[:0] of a scratch slice). It mirrors the
// seed parseIntFields contract: at least want fields, every field an
// integer, extra fields kept.
//
// The single-pass loop below handles the writer's own output (bare
// digits, optional leading '-', separated by single commas) without
// slicing out per-field subranges; anything else - signs, padding,
// empty fields, >18-digit values - falls back to the per-field parser,
// which produces the canonical error messages.
func parseIntsComma(line []byte, want int, out []int64) ([]int64, error) {
	i, n := 0, len(line)
	for {
		neg := false
		if i < n && line[i] == '-' {
			neg = true
			i++
		}
		start := i
		var v uint64
		for i < n {
			c := line[i]
			if c < '0' || c > '9' {
				break
			}
			v = v*10 + uint64(c-'0')
			i++
		}
		if i == start || i-start > 18 { // empty field or possible overflow
			return parseIntsCommaSlow(line, want, out[:0])
		}
		if neg {
			out = append(out, -int64(v))
		} else {
			out = append(out, int64(v))
		}
		if i == n {
			break
		}
		if line[i] != ',' {
			return parseIntsCommaSlow(line, want, out[:0])
		}
		i++
		if i == n { // trailing comma: empty last field
			return parseIntsCommaSlow(line, want, out[:0])
		}
	}
	if len(out) < want {
		return nil, fmt.Errorf("trace: line %q has %d fields, want >= %d", line, len(out), want)
	}
	return out, nil
}

func parseIntsCommaSlow(line []byte, want int, out []int64) ([]int64, error) {
	fields := 0
	for start := 0; ; fields++ {
		end := start
		for end < len(line) && line[end] != ',' {
			end++
		}
		v, err := parseInt(line[start:end])
		if err != nil {
			return nil, fmt.Errorf("trace: line %q field %d: %w", line, fields, err)
		}
		out = append(out, v)
		if end == len(line) {
			break
		}
		start = end + 1
	}
	if len(out) < want {
		return nil, fmt.Errorf("trace: line %q has %d fields, want >= %d", line, len(out), want)
	}
	return out, nil
}

// arena hands out counter slices in chunks so a PAPI or segments scan
// costs one allocation per ~arenaChunk counters instead of one per record.
type arena []int64

const arenaChunk = 4096

func (a *arena) take(n int) []int64 {
	if n == 0 {
		return nil
	}
	if len(*a) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		*a = make([]int64, size)
	}
	out := (*a)[:n:n]
	*a = (*a)[n:]
	return out
}

// csvScratch is the per-shard state a CSV scan reuses across lines.
type csvScratch struct {
	nEvents int // configured PAPI events: the counter columns a line owes
	ints    []int64
	arena
}

// newCSVScratch sizes the field scratch for the widest line the writer
// emits (PAPI: 7 fields plus one per event), so it never regrows.
func newCSVScratch(nEvents int) *csvScratch {
	return &csvScratch{nEvents: nEvents, ints: make([]int64, 0, 7+nEvents)}
}

// newLineScanner wraps r in a bufio.Scanner tuned for trace files.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return sc
}

// Parse-side codecs: each takes one trimmed, non-empty line.

func parseLogical(line []byte, s *csvScratch) (LogicalRecord, error) {
	v, err := parseIntsComma(line, 5, s.ints[:0])
	if err != nil {
		return LogicalRecord{}, err
	}
	s.ints = v[:0]
	return LogicalRecord{
		SrcNode: int(v[0]), SrcPE: int(v[1]),
		DstNode: int(v[2]), DstPE: int(v[3]), MsgSize: int(v[4]),
	}, nil
}

func parsePAPI(line []byte, s *csvScratch) (PAPIRecord, error) {
	v, err := parseIntsComma(line, 7+s.nEvents, s.ints[:0])
	if err != nil {
		return PAPIRecord{}, err
	}
	s.ints = v[:0]
	counters := s.take(len(v) - 7)
	copy(counters, v[7:])
	return PAPIRecord{
		SrcNode: int(v[0]), SrcPE: int(v[1]),
		DstNode: int(v[2]), DstPE: int(v[3]),
		PktSize: int(v[4]), MailboxID: int(v[5]), NumSends: int(v[6]),
		Counters: counters,
	}, nil
}

// parsePhysical parses one physical-trace line without allocating.
func parsePhysical(line []byte, s *csvScratch) (PhysicalRecord, error) {
	comma := -1
	for i, c := range line {
		if c == ',' {
			comma = i
			break
		}
	}
	if comma < 0 {
		return PhysicalRecord{}, fmt.Errorf("trace: bad physical line %q", line)
	}
	kind, ok := sendKindOf(line[:comma])
	if !ok {
		return PhysicalRecord{}, fmt.Errorf("trace: unknown send type %q", line[:comma])
	}
	v, err := parseIntsComma(line[comma+1:], 3, s.ints[:0])
	if err != nil || len(v) != 3 {
		return PhysicalRecord{}, fmt.Errorf("trace: bad physical line %q", line)
	}
	s.ints = v[:0]
	return PhysicalRecord{Kind: kind, BufBytes: int(v[0]), SrcPE: int(v[1]), DstPE: int(v[2])}, nil
}

// sendKindOf maps the on-disk send-type token to its SendKind without
// building a string.
func sendKindOf(tok []byte) (conveyor.SendKind, bool) {
	for _, k := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend, conveyor.NonblockProgress} {
		if string(tok) == k.String() { // comparison, not conversion: no alloc
			return k, true
		}
	}
	return 0, false
}

// parseOverall parses an "Absolute" overall.txt line. overall.txt and
// segments.txt hold O(PEs) lines, so these two parsers favour clarity
// over allocation-free byte twiddling.
func parseOverall(line []byte, _ *csvScratch) (OverallRecord, error) {
	var pe int
	var m, c, p int64
	if _, err := fmt.Sscanf(string(line), "Absolute [PE%d] TCOMM_PROFILING (%d, %d, %d)",
		&pe, &m, &c, &p); err != nil {
		return OverallRecord{}, fmt.Errorf("trace: bad overall line %q: %w", line, err)
	}
	return OverallRecord{PE: pe, TMain: m, TComm: c, TProc: p, TTotal: m + c + p}, nil
}

func parseSegment(line []byte, s *csvScratch) (SegmentRecord, error) {
	fields := strings.Fields(string(line))
	if len(fields) < 4 || fields[1] != "SEGMENT" {
		return SegmentRecord{}, fmt.Errorf("trace: bad segments line %q", line)
	}
	var pe int
	if _, err := fmt.Sscanf(fields[0], "[PE%d]", &pe); err != nil {
		return SegmentRecord{}, fmt.Errorf("trace: bad segments line %q: %w", line, err)
	}
	rec := SegmentRecord{PE: pe, Name: fields[2], Counters: make([]int64, 0, s.nEvents)}
	for _, kv := range fields[3:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return SegmentRecord{}, fmt.Errorf("trace: bad segments field %q", kv)
		}
		v, err := strconv.ParseInt(kv[eq+1:], 10, 64)
		if err != nil {
			return SegmentRecord{}, fmt.Errorf("trace: bad segments field %q: %w", kv, err)
		}
		switch kv[:eq] {
		case "count":
			rec.Count = v
		case "cycles":
			rec.Cycles = v
		default:
			rec.Counters = append(rec.Counters, v)
		}
	}
	return rec, nil
}

// Append-side codecs: one scratch []byte per sink, records appended with
// strconv.AppendInt and flushed in whole lines. They share one signature
// (the kind table's appendCSV); only segments.txt uses the event names.

func appendLogical(buf []byte, r LogicalRecord, _ []string) []byte {
	buf = strconv.AppendInt(buf, int64(r.SrcNode), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.SrcPE), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.DstNode), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.DstPE), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.MsgSize), 10)
	return append(buf, '\n')
}

func appendPAPI(buf []byte, r PAPIRecord, _ []string) []byte {
	buf = strconv.AppendInt(buf, int64(r.SrcNode), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.SrcPE), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.DstNode), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.DstPE), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.PktSize), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.MailboxID), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.NumSends), 10)
	for _, c := range r.Counters {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, c, 10)
	}
	return append(buf, '\n')
}

func appendPhysical(buf []byte, r PhysicalRecord, _ []string) []byte {
	buf = append(buf, r.Kind.String()...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.BufBytes), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.SrcPE), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.DstPE), 10)
	return append(buf, '\n')
}

// appendOverall emits the two overall.txt lines of one record, matching
// the seed's fmt layout byte for byte.
func appendOverall(buf []byte, r OverallRecord, _ []string) []byte {
	buf = append(buf, "Absolute [PE"...)
	buf = strconv.AppendInt(buf, int64(r.PE), 10)
	buf = append(buf, "] TCOMM_PROFILING ("...)
	buf = strconv.AppendInt(buf, r.TMain, 10)
	buf = append(buf, ", "...)
	buf = strconv.AppendInt(buf, r.TComm, 10)
	buf = append(buf, ", "...)
	buf = strconv.AppendInt(buf, r.TProc, 10)
	buf = append(buf, ")\nRelative [PE"...)
	buf = strconv.AppendInt(buf, int64(r.PE), 10)
	buf = append(buf, "] TCOMM_PROFILING ("...)
	buf = strconv.AppendFloat(buf, r.RelMain(), 'f', 6, 64)
	buf = append(buf, ", "...)
	buf = strconv.AppendFloat(buf, r.RelComm(), 'f', 6, 64)
	buf = append(buf, ", "...)
	buf = strconv.AppendFloat(buf, r.RelProc(), 'f', 6, 64)
	return append(buf, ")\n"...)
}

// appendSegment emits one segments.txt line; events supplies the counter
// column names (config order).
func appendSegment(buf []byte, r SegmentRecord, eventNames []string) []byte {
	buf = append(buf, "[PE"...)
	buf = strconv.AppendInt(buf, int64(r.PE), 10)
	buf = append(buf, "] SEGMENT "...)
	buf = append(buf, r.Name...)
	buf = append(buf, " count="...)
	buf = strconv.AppendInt(buf, r.Count, 10)
	buf = append(buf, " cycles="...)
	buf = strconv.AppendInt(buf, r.Cycles, 10)
	for i, ev := range eventNames {
		if i >= len(r.Counters) {
			break
		}
		buf = append(buf, ' ')
		buf = append(buf, ev...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, r.Counters[i], 10)
	}
	return append(buf, '\n')
}
