package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// writeLiveDir lays out a trace directory the way a streaming collector
// leaves it mid-run: meta present, logical CSVs with a torn final line
// (the writer's buffer flushed mid-record), and per-PE physical .part
// files not yet assembled into physical.txt.
func writeLiveDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"actorprof_meta.txt": "num_PEs 2\nPEs_per_node 2\nlogical_sample 1\n",
		"PE0_send.csv":       "0,0,0,1,8\n0,0,0,1,16\n0,0,0",
		"PE1_send.csv":       "0,1,0,0,8\n",
		"physical.PE0.part":  "local_send,64,0,1\nnonblock_send,128,0,1\nnonblock_s",
		"physical.PE1.part":  "local_send,32,1,0\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReadSetLiveToleratesInProgressDir(t *testing.T) {
	dir := writeLiveDir(t)

	// The strict reader must refuse the torn logical line.
	if _, err := ReadSet(dir); err == nil {
		t.Fatal("ReadSet accepted a torn logical line")
	}

	s, skipped, err := ReadSetLive(dir)
	if err != nil {
		t.Fatalf("ReadSetLive: %v", err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (one torn logical, one torn physical)", skipped)
	}
	if !s.Config.Logical || len(s.Logical[0]) != 2 || len(s.Logical[1]) != 1 {
		t.Errorf("logical records = %d/%d, want 2/1", len(s.Logical[0]), len(s.Logical[1]))
	}
	// Physical records come from the merged .part files.
	if !s.Config.Physical {
		t.Fatal("physical feature not detected from .part files")
	}
	if len(s.Physical[0]) != 2 || len(s.Physical[1]) != 1 {
		t.Errorf("physical records = %d/%d, want 2/1", len(s.Physical[0]), len(s.Physical[1]))
	}
}

func TestReadSetLiveMatchesReadSetOnFinishedDir(t *testing.T) {
	dir := t.TempDir()
	s := buildSet(t)
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	strict, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, skipped, err := ReadSetLive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d on a finished dir, want 0", skipped)
	}
	if len(live.Logical[0]) != len(strict.Logical[0]) ||
		len(live.Overall) != len(strict.Overall) ||
		live.Config.Logical != strict.Config.Logical ||
		live.Config.Physical != strict.Config.Physical ||
		live.Config.Overall != strict.Config.Overall {
		t.Error("live read of a finished dir differs from the strict read")
	}
}

// TestReadPhysicalMatchesReadSetLive: the physical-only reader returns
// exactly the physical records, shape and feature flag the full tolerant
// reader returns - for both encodings, for a finished directory, a live
// one that holds only .part shards and one whose physical file is torn,
// at any worker count - and its skipped count is the physical shards'
// share of the full reader's.
func TestReadPhysicalMatchesReadSetLive(t *testing.T) {
	const npes = 4
	emit := func(c *Collector) { // 3 blocks' worth of physical records, plus logical ones
		for pe := 0; pe < npes; pe++ {
			pc := c.ForPE(pe, papi.NewEngine())
			for i := 0; i < 600; i++ {
				pc.LogicalSend(0, (pe+i)%npes, 8)
				pc.PhysicalSendAt(conveyor.SendKind(i%3), 64+i, pe, (pe+1+i)%npes, int64(pe*1000+i+1))
			}
			pc.Close()
		}
	}
	finished := func(t *testing.T, format Format) (string, *Set) {
		c, err := NewCollector(Config{Logical: true, Physical: true, Format: format}, machine(npes, 2))
		if err != nil {
			t.Fatal(err)
		}
		emit(c)
		dir := t.TempDir()
		if err := c.Set().WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		return dir, c.Set()
	}
	states := map[string]func(t *testing.T, format Format) (dir string, othersSkipped int){
		"finished": func(t *testing.T, format Format) (string, int) {
			dir, _ := finished(t, format)
			return dir, 0
		},
		// What a streaming run holds before Finalize: no assembled
		// physical file, one .part shard per PE.
		"live-parts": func(t *testing.T, format Format) (string, int) {
			dir, set := finished(t, format)
			os.Remove(filepath.Join(dir, physicalFile))
			os.Remove(filepath.Join(dir, physicalBinFile))
			for pe := 0; pe < npes; pe++ {
				if err := writeShard(&physicalPartKind, dir, pe, format, nil, set.Physical[pe]); err != nil {
					t.Fatal(err)
				}
			}
			return dir, 0
		},
		"torn": func(t *testing.T, format Format) (string, int) {
			dir, _ := finished(t, format)
			for _, name := range []string{physicalFile, physicalBinFile, logicalFile(1), logicalBinFile(1)} {
				if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
					if err := os.Truncate(filepath.Join(dir, name), fi.Size()-3); err != nil {
						t.Fatal(err)
					}
				}
			}
			if format == FormatBinary {
				return dir, 600 // PE 1's logical shard is one torn block
			}
			return dir, 1 // one torn logical line
		},
	}
	for _, format := range []Format{FormatCSV, FormatBinary} {
		for state, build := range states {
			t.Run(format.String()+"/"+state, func(t *testing.T) {
				dir, othersSkipped := build(t, format)
				full, fullSkipped, err := ReadSetLive(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !full.Config.Physical || len(full.Physical[npes-1]) == 0 {
					t.Fatal("fixture has no physical trace")
				}
				for _, workers := range []int{1, 4} {
					got, skipped, err := ReadPhysical(dir, ReadOptions{Tolerant: true, Workers: workers})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if got.NumPEs != full.NumPEs || got.PEsPerNode != full.PEsPerNode || got.Config.Physical != full.Config.Physical {
						t.Fatalf("workers=%d: shape %d/%d physical=%v, full reader %d/%d physical=%v", workers,
							got.NumPEs, got.PEsPerNode, got.Config.Physical, full.NumPEs, full.PEsPerNode, full.Config.Physical)
					}
					if !reflect.DeepEqual(got.Physical, full.Physical) {
						t.Fatalf("workers=%d: physical records differ from the full reader's", workers)
					}
					if skipped != fullSkipped-othersSkipped || (state == "torn") != (skipped > 0) {
						t.Fatalf("workers=%d: skipped %d; the full reader skipped %d, %d of them outside the physical trace",
							workers, skipped, fullSkipped, othersSkipped)
					}
					if got.Config.Logical || len(got.Logical[0])+len(got.PAPI[0])+len(got.Overall) != 0 {
						t.Fatalf("workers=%d: the physical-only Set carries other records", workers)
					}
				}
				// No sidecar anywhere here: QueryWindow answers from the
				// physical-only read, exactly as the full Set would.
				for _, q := range []Window{{T0: 0, T1: 1 << 40}, {T0: 100, T1: 1500}, {T0: 0, T1: 1 << 40, LOD: 3}} {
					res, err := QueryWindow(dir, q)
					if err != nil || !reflect.DeepEqual(res, QueryWindowSet(full, q)) {
						t.Fatalf("QueryWindow(%+v) differs from QueryWindowSet over the full Set (err %v)", q, err)
					}
				}
				// A strict read fails on the torn physical file only.
				if _, _, err := ReadPhysical(dir, ReadOptions{}); (err != nil) != (state == "torn") {
					t.Fatalf("strict ReadPhysical: %v", err)
				}
			})
		}
	}
}
