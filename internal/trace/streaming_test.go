package trace

import (
	"os"
	"path/filepath"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

func TestStreamingCollectorWritesIdenticalFiles(t *testing.T) {
	// The same event sequence through a buffering collector + WriteFiles
	// and through a streaming collector + Finalize must produce
	// byte-identical trace files.
	cfg := Config{
		Logical: true, Physical: true, Overall: true,
		PAPIEvents: []papi.Event{papi.TOT_INS},
	}
	m := machine(4, 2)

	feed := func(c *Collector) {
		for pe := 0; pe < 4; pe++ {
			eng := papi.NewEngine()
			pc := c.ForPE(pe, eng)
			for i := 0; i < 5; i++ {
				eng.Tally(&papi.Work{Ins: int64(10 * (pe + 1))})
				pc.LogicalSend(0, (pe+i)%4, 8)
			}
			pc.PhysicalSend(conveyor.LocalSend, 128, pe, (pe+1)%4)
			if pe >= 2 {
				pc.PhysicalSend(conveyor.NonblockSend, 256, pe, (pe+2)%4)
			}
			pc.OverallBreakdown(int64(100+pe), int64(50+pe), int64(1000+pe))
			pc.Close()
		}
	}

	bufDir := t.TempDir()
	buffered, err := NewCollector(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	feed(buffered)
	if err := buffered.Set().WriteFiles(bufDir); err != nil {
		t.Fatal(err)
	}

	streamDir := t.TempDir()
	streaming, err := NewStreamingCollector(cfg, m, streamDir)
	if err != nil {
		t.Fatal(err)
	}
	if !streaming.Streaming() {
		t.Fatal("collector should report streaming mode")
	}
	feed(streaming)
	if err := streaming.Finalize(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(bufDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no files written")
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(bufDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(streamDir, e.Name()))
		if err != nil {
			t.Fatalf("streaming run missing %s: %v", e.Name(), err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between buffered and streaming collectors:\nbuffered:\n%s\nstreaming:\n%s",
				e.Name(), want, got)
		}
	}
	// No leftover part files.
	leftovers, _ := filepath.Glob(filepath.Join(streamDir, "*.part"))
	if len(leftovers) != 0 {
		t.Errorf("part files not cleaned up: %v", leftovers)
	}
}

func TestStreamingKeepsMemoryEmpty(t *testing.T) {
	dir := t.TempDir()
	c, err := NewStreamingCollector(Config{Logical: true}, machine(2, 2), dir)
	if err != nil {
		t.Fatal(err)
	}
	pc := c.ForPE(0, nil)
	for i := 0; i < 1000; i++ {
		pc.LogicalSend(0, 1, 8)
	}
	pc.Close()
	set := c.Set()
	if len(set.Logical[0]) != 0 {
		t.Fatalf("streaming collector buffered %d records in memory", len(set.Logical[0]))
	}
	if set.LogicalSendCount[0] != 1000 {
		t.Fatalf("send count = %d, want 1000", set.LogicalSendCount[0])
	}
}

func TestStreamingRoundTripThroughReadSet(t *testing.T) {
	dir := t.TempDir()
	c, err := NewStreamingCollector(Config{Logical: true, Overall: true}, machine(2, 2), dir)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 2; pe++ {
		pc := c.ForPE(pe, nil)
		for i := 0; i < 7; i++ {
			pc.LogicalSend(0, 1-pe, 16)
		}
		pc.OverallBreakdown(10, 20, 100)
		pc.Close()
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.LogicalMatrix().Total(); got != 14 {
		t.Fatalf("read-back logical total = %d, want 14", got)
	}
	if len(back.Overall) != 2 {
		t.Fatalf("read-back overall records = %d, want 2", len(back.Overall))
	}
}

func TestStreamingCollectorBadDirectory(t *testing.T) {
	// A file where the directory should be must fail fast at
	// construction, not corrupt a run later.
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamingCollector(Config{Logical: true}, machine(2, 2),
		filepath.Join(path, "sub")); err == nil {
		t.Fatal("expected error creating stream dir under a file")
	}
}

func TestFinalizeClosesAllStreamsOnError(t *testing.T) {
	// Regression: Finalize used to return on the first stream close error,
	// leaving every later PE's streams open (fd leak). All streams must
	// be closed even when one of them fails.
	dir := t.TempDir()
	c, err := NewStreamingCollector(Config{Logical: true, Physical: true}, machine(4, 2), dir)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		pc := c.ForPE(pe, nil)
		for i := 0; i < 10; i++ {
			pc.LogicalSend(0, (pe+1)%4, 8)
			pc.PhysicalSend(conveyor.LocalSend, 64, pe, (pe+1)%4)
		}
		pc.Close()
	}
	// Snapshot the open files, then sabotage PE 1: closing its logical
	// file underneath the bufio writer makes its flush fail.
	var files []*os.File
	for _, s := range c.streams {
		files = append(files, s.logical[0].f, s.phys[0].f)
	}
	if err := c.streams[1].logical[0].f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err == nil {
		t.Fatal("Finalize must report the PE 1 flush error")
	}
	for i, f := range files {
		if err := f.Close(); err == nil {
			t.Errorf("file %d (%s) was left open by the failing Finalize", i, f.Name())
		}
	}
	// The failed Finalize must not have assembled a physical.txt over
	// untrustworthy per-PE files.
	if _, err := os.Stat(filepath.Join(dir, physicalFile)); !os.IsNotExist(err) {
		t.Errorf("physical.txt written despite stream close failure (stat err: %v)", err)
	}
}

func TestFinalizeRemovesHalfWrittenPhysical(t *testing.T) {
	// Regression: an error while concatenating the per-PE physical parts
	// used to strand a truncated physical.txt that readers would trust.
	// On failure the half-written file must be removed and the .part
	// inputs kept.
	dir := t.TempDir()
	c, err := NewStreamingCollector(Config{Physical: true}, machine(4, 2), dir)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		pc := c.ForPE(pe, nil)
		pc.PhysicalSend(conveyor.LocalSend, 64, pe, (pe+1)%4)
		pc.Close()
	}
	// Replace PE 2's part path with a directory: the open stream handle
	// still flushes to the unlinked file, but the concatenation's
	// io.Copy from a directory fails mid-assembly.
	part := filepath.Join(dir, physicalPart(2))
	if err := os.Remove(part); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(part, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err == nil {
		t.Fatal("Finalize must report the concatenation error")
	}
	if _, err := os.Stat(filepath.Join(dir, physicalFile)); !os.IsNotExist(err) {
		t.Errorf("half-written physical.txt left behind (stat err: %v)", err)
	}
	for _, pe := range []int{0, 1, 3} {
		if _, err := os.Stat(filepath.Join(dir, physicalPart(pe))); err != nil {
			t.Errorf("part file of PE %d removed despite failed assembly: %v", pe, err)
		}
	}
}

func TestStreamingWritesMetaEagerly(t *testing.T) {
	// A live viewer must be able to ingest the directory before
	// Finalize, which requires the meta file from the start.
	dir := t.TempDir()
	if _, err := NewStreamingCollector(Config{Logical: true}, machine(2, 2), dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, MetaFile)); err != nil {
		t.Fatalf("meta file not written at collector creation: %v", err)
	}
}

func TestFinalizeOnBufferingCollectorFails(t *testing.T) {
	c, err := NewCollector(Config{Logical: true}, machine(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err == nil {
		t.Fatal("Finalize on a buffering collector must error")
	}
}

// The part names the collector writes, in both encodings, are the names
// IsPhysicalPart recognises; the assembled files and strangers are not.
func TestIsPhysicalPart(t *testing.T) {
	for name, want := range map[string]bool{
		physicalPart(0): true, physicalPartBin(12): true,
		physicalFile: false, "physical.bin": false, "physical.idx": false,
		"PE0_send.csv.part": false, "physical.PE1.partial": false,
	} {
		if got := IsPhysicalPart(name); got != want {
			t.Errorf("IsPhysicalPart(%q) = %v, want %v", name, got, want)
		}
	}
}
