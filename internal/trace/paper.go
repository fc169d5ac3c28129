package trace

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"actorprof/internal/conveyor"
)

// The paper's text layout (Section III) - PEi_send.csv, PEi_PAPI.csv,
// overall.txt, physical.txt, plus this repo's segments.txt - lives at the
// rim of the trace format: no reader opens it. WriteFiles writes it beside
// the APBF files when Config.Format is FormatCSV, and ImportPaper reads a
// directory that holds only it back into a Set.

func logicalFile(pe int) string { return fmt.Sprintf("PE%d_send.csv", pe) }
func papiFile(pe int) string    { return fmt.Sprintf("PE%d_PAPI.csv", pe) }

const (
	overallFile  = "overall.txt"
	physicalFile = "physical.txt"
	segmentsFile = "segments.txt"
)

// writePaper writes the file name of kind k in dir in the paper's layout:
// the n rows at(0), ..., at(n-1), one appendCSV each, gathered in a pooled
// shardWriter.
func writePaper[T any](k *kind[T], dir, name string, events []string, n int, at func(i int) T) error {
	f, w, err := createShard(dir, name)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		w.buf = k.appendCSV(w.buf, at(i), events)
		w.gathered()
	}
	return closeShard(f, w)
}

// The append codecs, one per kind (the kind table's appendCSV), each
// appending with strconv.AppendInt; only segments.txt uses the event
// names.

// appendInts appends vals as comma-separated decimals.
func appendInts(buf []byte, vals ...int64) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return buf
}

func appendLogical(buf []byte, r LogicalRecord, _ []string) []byte {
	buf = appendInts(buf, int64(r.SrcNode), int64(r.SrcPE), int64(r.DstNode), int64(r.DstPE), int64(r.MsgSize))
	return append(buf, '\n')
}

func appendPAPI(buf []byte, r PAPIRecord, _ []string) []byte {
	buf = appendInts(buf, int64(r.SrcNode), int64(r.SrcPE), int64(r.DstNode), int64(r.DstPE),
		int64(r.PktSize), int64(r.MailboxID), int64(r.NumSends))
	for _, c := range r.Counters {
		buf = strconv.AppendInt(append(buf, ','), c, 10)
	}
	return append(buf, '\n')
}

func appendPhysical(buf []byte, r PhysicalRecord, _ []string) []byte {
	buf = appendInts(append(append(buf, r.Kind.String()...), ','), int64(r.BufBytes), int64(r.SrcPE), int64(r.DstPE))
	return append(buf, '\n')
}

// appendOverall emits the two overall.txt lines of one record.
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

// appendSegment emits one segments.txt line; eventNames supplies the
// counter column names (config order).
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

// ImportPaper reads a directory in the paper's layout - its meta file
// and text files, whatever else it holds - into a Set: `actorprof import`
// writes the result out as an APBF directory. It reads the files one
// after another and is always tolerant: a line that does not parse, or
// whose record the readers would refuse (admitLogical, admitPAPI, the
// run-wide kinds' check), is skipped and counted in skipped; a missing
// file leaves its feature off. A PAPI line's counters past the meta
// file's events are dropped. Only the meta file and I/O errors fail it.
func ImportPaper(dir string) (s *Set, skipped int, err error) {
	m, err := readMeta(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, 0, err
	}
	s = NewSet(m.config(), m.npes, m.perNode)
	im := &importer{dir: dir}
	k := len(m.events)
	for pe := 0; pe < m.npes; pe++ {
		found := im.lines(logicalFile(pe), func(line string) error {
			v, err := paperInts(line, 5)
			if err == nil {
				err = admitLogical(m, pe, int(v[0]), int(v[1]), int(v[2]), int(v[3]), int(v[4]))
			}
			if err == nil {
				s.Logical[pe] = append(s.Logical[pe], LogicalSend{int32(v[3]), int32(v[4])})
			}
			return err
		})
		s.Config.Logical = s.Config.Logical || found
		s.LogicalSendCount[pe] = int64(len(s.Logical[pe])) * int64(m.sample)
		im.lines(papiFile(pe), func(line string) error {
			v, err := paperInts(line, 7+k)
			if err == nil {
				err = admitPAPI(m, pe, int(v[0]), int(v[1]), int(v[2]), int(v[3]), int(v[4]), int(v[5]), int(v[6]))
			}
			if err == nil {
				s.PAPI[pe] = append(s.PAPI[pe], PAPISend{int32(v[3]), int32(v[4]), int32(v[5]), int32(v[6])})
				s.PAPICounters[pe] = append(s.PAPICounters[pe], v[7:7+k]...)
			}
			return err
		})
	}
	overall, found := importRows(im, &overallKind, m, "Absolute ", parseOverall)
	s.Config.Overall = found
	if found {
		s.Overall = normalizeOverall(overall)
	}
	physical, found := importRows(im, &physicalKind, m, "", parsePhysical)
	s.Config.Physical = found
	filePhysical(s, physical)
	segments, _ := importRows(im, &segmentsKind, m, "", func(line string) (SegmentRecord, error) { return parseSegment(line, k) })
	for _, r := range segments {
		s.Segments[r.PE] = append(s.Segments[r.PE], r)
	}
	if im.err != nil {
		return nil, 0, im.err
	}
	return s, im.skipped, nil
}

// importer is ImportPaper's one pass over a directory: the lines it
// skipped, and the first I/O error, after which it opens nothing more.
type importer struct {
	dir     string
	skipped int
	err     error
}

// lines hands admit every non-empty line of the file name, trimmed, and
// counts the lines it refuses; found is false when there is no such file.
// A line past 1 MiB is corruption: it is counted and ends the file.
func (im *importer) lines(name string, admit func(line string) error) (found bool) {
	if im.err != nil {
		return false
	}
	f, err := os.Open(filepath.Join(im.dir, name))
	if err != nil {
		if !os.IsNotExist(err) {
			im.err = fmt.Errorf("trace: %w", err)
		}
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && admit(line) != nil {
			im.skipped++
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		im.skipped++
	} else if err != nil {
		im.err = fmt.Errorf("trace: reading %s: %w", name, err)
	}
	return true
}

// importRows reads the file of run-wide kind k: each line that has the
// prefix is parsed and checked by the kind's rule; lines without it are
// derived data (overall.txt's Relative lines), ignored, not skipped.
func importRows[T any](im *importer, k *kind[T], m *meta, prefix string, parse func(line string) (T, error)) (recs []T, found bool) {
	found = im.lines(k.csvFile(-1), func(line string) error {
		if !strings.HasPrefix(line, prefix) {
			return nil
		}
		r, err := parse(line)
		if err == nil {
			err = k.check(r, m)
		}
		if err == nil {
			recs = append(recs, r)
		}
		return err
	})
	return recs, found
}

var errPaperLine = errors.New("trace: malformed line")

// paperInts parses line's comma-separated integers, each optionally
// space-padded: at least want of them.
func paperInts(line string, want int) ([]int64, error) {
	fields := strings.Split(line, ",")
	if len(fields) < want {
		return nil, errPaperLine
	}
	v := make([]int64, len(fields))
	for i, f := range fields {
		var err error
		if v[i], err = strconv.ParseInt(strings.TrimSpace(f), 10, 64); err != nil {
			return nil, errPaperLine
		}
	}
	return v, nil
}

// parsePhysical parses a physical.txt line: sendType,bufBytes,srcPE,dstPE.
func parsePhysical(line string) (PhysicalRecord, error) {
	name, rest, _ := strings.Cut(line, ",")
	v, err := paperInts(rest, 3)
	if err != nil || len(v) != 3 {
		return PhysicalRecord{}, errPaperLine
	}
	for kind := conveyor.LocalSend; kind <= conveyor.NonblockProgress; kind++ {
		if name == kind.String() {
			return PhysicalRecord{Kind: kind, BufBytes: int(v[0]), SrcPE: int(v[1]), DstPE: int(v[2])}, nil
		}
	}
	return PhysicalRecord{}, errPaperLine
}

// parseOverall parses an "Absolute" overall.txt line.
func parseOverall(line string) (OverallRecord, error) {
	var pe int
	var m, c, p int64
	if _, err := fmt.Sscanf(line, "Absolute [PE%d] TCOMM_PROFILING (%d, %d, %d)", &pe, &m, &c, &p); err != nil {
		return OverallRecord{}, errPaperLine
	}
	return OverallRecord{PE: pe, TMain: m, TComm: c, TProc: p, TTotal: m + c + p}, nil
}

// parseSegment parses a segments.txt line; k is the run's event count.
func parseSegment(line string, k int) (SegmentRecord, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[1] != "SEGMENT" {
		return SegmentRecord{}, errPaperLine
	}
	var pe int
	if _, err := fmt.Sscanf(fields[0], "[PE%d]", &pe); err != nil {
		return SegmentRecord{}, errPaperLine
	}
	rec := SegmentRecord{PE: pe, Name: fields[2], Counters: make([]int64, 0, k)}
	for _, kv := range fields[3:] {
		key, val, ok := strings.Cut(kv, "=")
		v, err := strconv.ParseInt(val, 10, 64)
		if !ok || err != nil {
			return SegmentRecord{}, errPaperLine
		}
		switch key {
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
