package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
)

func machine(npes, perNode int) sim.Machine {
	return sim.Machine{NumPEs: npes, PEsPerNode: perNode}
}

func TestConfigValidate(t *testing.T) {
	cfg := Config{PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS, papi.L1_DCM, papi.BR_MSP, papi.TLB_DM}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for 5 PAPI events (PAPI limit is 4)")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("empty config should validate: %v", err)
	}
}

func TestConfigAny(t *testing.T) {
	if (Config{}).Any() {
		t.Error("zero config should report no features")
	}
	if !(Config{Physical: true}).Any() {
		t.Error("physical-only config should report features")
	}
}

// buildSet fabricates a small, fully-populated trace set. It asks for
// the paper's text layout: the tests that take it name CSV files.
func buildSet(t *testing.T) *Set {
	t.Helper()
	m := machine(4, 2)
	c, err := NewCollector(Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
		Format:     FormatCSV,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		eng := papi.NewEngine()
		pc := c.ForPE(pe, eng)
		for i := 0; i < 3; i++ {
			dst := (pe + 1 + i) % 4
			eng.Tally(&papi.Work{Ins: 100, LstIns: 30})
			pc.LogicalSend(0, dst, 8)
		}
		pc.PhysicalSendAt(conveyor.LocalSend, 256, pe, (pe+1)%4, 0)
		if pe%2 == 0 {
			pc.PhysicalSendAt(conveyor.NonblockSend, 512, pe, (pe+2)%4, 0)
			pc.PhysicalSendAt(conveyor.NonblockProgress, 512, pe, (pe+2)%4, 0)
		}
		pc.OverallBreakdown(int64(100*(pe+1)), int64(50*(pe+1)), int64(1000*(pe+1)))
		pc.Close()
	}
	return c.Set()
}

func TestCollectorAssemblesSet(t *testing.T) {
	set := buildSet(t)
	if set.NumPEs != 4 || set.PEsPerNode != 2 {
		t.Fatalf("bad set shape: %d/%d", set.NumPEs, set.PEsPerNode)
	}
	for pe := 0; pe < 4; pe++ {
		if len(set.Logical[pe]) != 3 {
			t.Errorf("PE %d: %d logical records, want 3", pe, len(set.Logical[pe]))
		}
		if set.LogicalSendCount[pe] != 3 {
			t.Errorf("PE %d: send count %d, want 3", pe, set.LogicalSendCount[pe])
		}
	}
	if len(set.Overall) != 4 {
		t.Fatalf("overall records: %d, want 4", len(set.Overall))
	}
	for _, r := range set.Overall {
		wantComm := r.TTotal - r.TMain - r.TProc
		if r.TComm != wantComm {
			t.Errorf("PE %d: TComm = %d, want derived %d", r.PE, r.TComm, wantComm)
		}
	}
}

func TestPAPIRecordBatching(t *testing.T) {
	m := machine(2, 2)
	c, err := NewCollector(Config{
		Logical:         true,
		PAPIEvents:      []papi.Event{papi.TOT_INS},
		PAPIRecordEvery: 4,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	eng := papi.NewEngine()
	pc := c.ForPE(0, eng)
	// 10 sends to the same destination: records of 4, 4, 2.
	for i := 0; i < 10; i++ {
		eng.Tally(&papi.Work{Ins: 10})
		pc.LogicalSend(0, 1, 8)
	}
	pc.Close()
	set := c.Set()
	recs := set.PAPI[0]
	if len(recs) != 3 {
		t.Fatalf("got %d PAPI records, want 3", len(recs))
	}
	if recs[0].NumSends != 4 || recs[1].NumSends != 4 || recs[2].NumSends != 2 {
		t.Fatalf("batch sizes: %d,%d,%d", recs[0].NumSends, recs[1].NumSends, recs[2].NumSends)
	}
	var ins int64
	for i := range recs {
		ins += set.PAPIRecordAt(0, i).Counters[0]
	}
	if ins != 100 {
		t.Fatalf("TOT_INS total = %d, want 100", ins)
	}
}

func TestPAPIRecordFlushOnDestinationChange(t *testing.T) {
	m := machine(4, 4)
	c, _ := NewCollector(Config{
		PAPIEvents:      []papi.Event{papi.TOT_INS},
		PAPIRecordEvery: 100,
	}, m)
	eng := papi.NewEngine()
	pc := c.ForPE(0, eng)
	pc.LogicalSend(0, 1, 8)
	pc.LogicalSend(0, 1, 8)
	pc.LogicalSend(0, 2, 8) // destination change forces a flush
	pc.Close()
	recs := c.Set().PAPI[0]
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (flush on dst change)", len(recs))
	}
	if recs[0].DstPE != 1 || recs[0].NumSends != 2 {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].DstPE != 2 || recs[1].NumSends != 1 {
		t.Fatalf("second record: %+v", recs[1])
	}
}

func TestResidualPAPIRecord(t *testing.T) {
	m := machine(2, 2)
	c, _ := NewCollector(Config{PAPIEvents: []papi.Event{papi.TOT_INS}}, m)
	eng := papi.NewEngine()
	pc := c.ForPE(0, eng)
	pc.LogicalSend(0, 1, 8)
	// Work after the last send (drain-phase handlers) must not be lost.
	eng.Tally(&papi.Work{Ins: 777})
	pc.Close()
	set := c.Set()
	if len(set.PAPI[0]) != 2 {
		t.Fatalf("got %d records, want send + residual", len(set.PAPI[0]))
	}
	last := set.PAPIRecordAt(0, 1)
	if last.NumSends != 0 || last.MailboxID != -1 {
		t.Fatalf("residual record malformed: %+v", last)
	}
	if last.Counters[0] != 777 {
		t.Fatalf("residual TOT_INS = %d, want 777", last.Counters[0])
	}
}

func TestLogicalSampling(t *testing.T) {
	m := machine(2, 2)
	c, _ := NewCollector(Config{Logical: true, LogicalSample: 10}, m)
	pc := c.ForPE(0, nil)
	for i := 0; i < 100; i++ {
		pc.LogicalSend(0, 1, 8)
	}
	pc.Close()
	set := c.Set()
	if got := len(set.Logical[0]); got != 10 {
		t.Fatalf("sampled records = %d, want 10", got)
	}
	if set.LogicalSendCount[0] != 100 {
		t.Fatalf("true count = %d, want 100", set.LogicalSendCount[0])
	}
	// The matrix scales sampled counts back up.
	if total := set.LogicalMatrix().Total(); total != 100 {
		t.Fatalf("scaled matrix total = %d, want 100", total)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	set := buildSet(t)
	dir := t.TempDir()
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"PE0_send.csv", "PE3_send.csv", "PE0_PAPI.csv",
		"overall.txt", "physical.txt", "actorprof_meta.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	back, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPEs != set.NumPEs || back.PEsPerNode != set.PEsPerNode {
		t.Fatalf("shape: %d/%d", back.NumPEs, back.PEsPerNode)
	}
	for pe := 0; pe < 4; pe++ {
		if len(back.Logical[pe]) != len(set.Logical[pe]) {
			t.Fatalf("PE %d logical: %d vs %d", pe, len(back.Logical[pe]), len(set.Logical[pe]))
		}
		for i := range back.Logical[pe] {
			if r, w := back.LogicalRecordAt(pe, i), set.LogicalRecordAt(pe, i); r != w {
				t.Fatalf("PE %d logical[%d]: %+v vs %+v", pe, i, r, w)
			}
		}
		if len(back.PAPI[pe]) != len(set.PAPI[pe]) {
			t.Fatalf("PE %d PAPI: %d vs %d", pe, len(back.PAPI[pe]), len(set.PAPI[pe]))
		}
		for i := range back.PAPI[pe] {
			r, w := back.PAPIRecordAt(pe, i), set.PAPIRecordAt(pe, i)
			if r.DstPE != w.DstPE || r.NumSends != w.NumSends || r.Counters[0] != w.Counters[0] {
				t.Fatalf("PE %d PAPI[%d]: %+v vs %+v", pe, i, r, w)
			}
		}
		if len(back.Physical[pe]) != len(set.Physical[pe]) {
			t.Fatalf("PE %d physical: %d vs %d", pe, len(back.Physical[pe]), len(set.Physical[pe]))
		}
		for i, r := range back.Physical[pe] {
			if r != set.Physical[pe][i] {
				t.Fatalf("PE %d physical[%d]: %+v vs %+v", pe, i, r, set.Physical[pe][i])
			}
		}
	}
	if len(back.Overall) != len(set.Overall) {
		t.Fatalf("overall: %d vs %d", len(back.Overall), len(set.Overall))
	}
	for i, r := range back.Overall {
		if r != set.Overall[i] {
			t.Fatalf("overall[%d]: %+v vs %+v", i, r, set.Overall[i])
		}
	}
}

func TestFileFormatsMatchPaper(t *testing.T) {
	set := buildSet(t)
	dir := t.TempDir()
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	logical, err := os.ReadFile(filepath.Join(dir, "PE0_send.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// srcNode,srcPE,dstNode,dstPE,msgSize
	first := strings.SplitN(string(logical), "\n", 2)[0]
	if got := len(strings.Split(first, ",")); got != 5 {
		t.Fatalf("logical line %q has %d fields, want 5", first, got)
	}

	papiB, err := os.ReadFile(filepath.Join(dir, "PE0_PAPI.csv"))
	if err != nil {
		t.Fatal(err)
	}
	first = strings.SplitN(string(papiB), "\n", 2)[0]
	// srcNode,srcPE,dstNode,dstPE,pktSize,MAILBOXID,NUM_SENDS + 2 events
	if got := len(strings.Split(first, ",")); got != 9 {
		t.Fatalf("PAPI line %q has %d fields, want 9", first, got)
	}

	overall, err := os.ReadFile(filepath.Join(dir, "overall.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(overall)), "\n")
	if len(lines) != 8 { // Absolute + Relative per PE
		t.Fatalf("overall.txt has %d lines, want 8", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Absolute [PE0] TCOMM_PROFILING (") {
		t.Fatalf("bad overall line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Relative [PE0] TCOMM_PROFILING (") {
		t.Fatalf("bad overall line: %q", lines[1])
	}

	phys, err := os.ReadFile(filepath.Join(dir, "physical.txt"))
	if err != nil {
		t.Fatal(err)
	}
	first = strings.SplitN(string(phys), "\n", 2)[0]
	parts := strings.Split(first, ",")
	if len(parts) != 4 {
		t.Fatalf("physical line %q has %d fields, want 4", first, len(parts))
	}
	switch parts[0] {
	case "local_send", "nonblock_send", "nonblock_progress":
	default:
		t.Fatalf("bad send type %q", parts[0])
	}
}

func TestSegmentAggregation(t *testing.T) {
	m := machine(2, 2)
	c, err := NewCollector(Config{PAPIEvents: []papi.Event{papi.TOT_INS}}, m)
	if err != nil {
		t.Fatal(err)
	}
	eng := papi.NewEngine()
	pc := c.ForPE(0, eng)
	for i := 0; i < 3; i++ {
		tok := pc.SegmentEnter("compute", int64(i*100))
		eng.Tally(&papi.Work{Ins: 50})
		pc.SegmentExit(tok, int64(i*100+20))
	}
	tok := pc.SegmentEnter("io", 0)
	pc.SegmentExit(tok, 7)
	pc.Close()
	segs := c.Set().Segments[0]
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	// Sorted by name: compute, io.
	if segs[0].Name != "compute" || segs[0].Count != 3 || segs[0].Cycles != 60 {
		t.Fatalf("compute segment: %+v", segs[0])
	}
	if segs[0].Counters[0] != 150 {
		t.Fatalf("compute TOT_INS = %d, want 150", segs[0].Counters[0])
	}
	if segs[1].Name != "io" || segs[1].Count != 1 || segs[1].Cycles != 7 {
		t.Fatalf("io segment: %+v", segs[1])
	}
}

func TestSegmentsFileRoundTrip(t *testing.T) {
	m := machine(2, 2)
	c, _ := NewCollector(Config{Logical: true, PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS}}, m)
	for pe := 0; pe < 2; pe++ {
		eng := papi.NewEngine()
		pc := c.ForPE(pe, eng)
		tok := pc.SegmentEnter("kernel", 0)
		eng.Tally(&papi.Work{Ins: int64(100 * (pe + 1)), LstIns: 9})
		pc.SegmentExit(tok, int64(500*(pe+1)))
		pc.Close()
	}
	dir := t.TempDir()
	if err := c.Set().WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 2; pe++ {
		if len(back.Segments[pe]) != 1 {
			t.Fatalf("PE %d: %d segments after round trip", pe, len(back.Segments[pe]))
		}
		r := back.Segments[pe][0]
		if r.Name != "kernel" || r.Cycles != int64(500*(pe+1)) || r.Counters[0] != int64(100*(pe+1)) {
			t.Fatalf("PE %d segment: %+v", pe, r)
		}
		if r.Counters[1] != 9 {
			t.Fatalf("PE %d LST_INS = %d, want 9", pe, r.Counters[1])
		}
	}
}

func TestMatrices(t *testing.T) {
	set := buildSet(t)
	lm := set.LogicalMatrix()
	if lm.Total() != 12 {
		t.Fatalf("logical total = %d, want 12", lm.Total())
	}
	sends := lm.SendTotals()
	for pe, s := range sends {
		if s != 3 {
			t.Errorf("PE %d sends = %d, want 3", pe, s)
		}
	}
	pm := set.PhysicalMatrix()
	// 4 local + 2 nonblock data transfers; progress events must NOT
	// count (they would double the nonblock sends).
	if pm.Total() != 6 {
		t.Fatalf("physical total = %d, want 6", pm.Total())
	}
	if got := set.PhysicalMatrixOf(conveyor.NonblockProgress).Total(); got != 2 {
		t.Fatalf("progress matrix total = %d, want 2", got)
	}
	kinds := set.PhysicalKindCounts()
	if kinds[conveyor.LocalSend] != 4 || kinds[conveyor.NonblockSend] != 2 || kinds[conveyor.NonblockProgress] != 2 {
		t.Fatalf("kind counts: %v", kinds)
	}
}

func TestMatrixTotalsProperty(t *testing.T) {
	// Property: sum(SendTotals) == sum(RecvTotals) == Total for any
	// matrix contents.
	f := func(cells [16]uint8) bool {
		m := NewMatrix(4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m[i][j] = int64(cells[i*4+j])
			}
		}
		var s, r int64
		for _, v := range m.SendTotals() {
			s += v
		}
		for _, v := range m.RecvTotals() {
			r += v
		}
		return s == m.Total() && r == m.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxOverMean(t *testing.T) {
	if got := MaxOverMean([]int64{1, 1, 1, 5}); got != 2.5 {
		t.Errorf("MaxOverMean = %v, want 2.5", got)
	}
	if got := MaxOverMean(nil); got != 0 {
		t.Errorf("MaxOverMean(nil) = %v", got)
	}
}

func TestOverallRelatives(t *testing.T) {
	r := OverallRecord{TMain: 10, TComm: 70, TProc: 20, TTotal: 100}
	if r.RelMain() != 0.1 || r.RelComm() != 0.7 || r.RelProc() != 0.2 {
		t.Fatalf("relatives: %v %v %v", r.RelMain(), r.RelComm(), r.RelProc())
	}
	zero := OverallRecord{}
	if zero.RelMain() != 0 {
		t.Error("zero-total relative should be 0")
	}
}

func TestReadSetMissingDir(t *testing.T) {
	if _, err := ReadSet(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestReadSetPartialTraces(t *testing.T) {
	// A directory with only the meta and overall files (the visualizer
	// must cope with partial trace directories).
	set := buildSet(t)
	dir := t.TempDir()
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		os.Remove(filepath.Join(dir, logicalBinFile(pe)))
		os.Remove(filepath.Join(dir, papiBinFile(pe)))
	}
	os.Remove(filepath.Join(dir, physicalBinFile))
	back, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.Logical || back.Config.Physical {
		t.Error("removed traces should read as disabled")
	}
	if !back.Config.Overall || len(back.Overall) != 4 {
		t.Error("overall trace lost")
	}
}
