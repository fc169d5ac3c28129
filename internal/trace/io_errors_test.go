package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/conveyor"
)

// apbf encodes rows as one APBF file of the given kind, in one block.
func apbf(kind byte, rows ...[]int64) string { return apbfBlocks(kind, rows) }

// apbfBlocks encodes one APBF file of the given kind, a block per
// argument.
func apbfBlocks(kind byte, blocks ...[][]int64) string {
	var buf bytes.Buffer
	var b shardWriter
	b.start(&buf)
	b.header(kind, len(blocks[0][0]))
	for _, rows := range blocks {
		cols := b.block(len(rows))
		for i, row := range rows {
			for c, v := range row {
				cols[c][i] = v
			}
		}
		b.flushBlock()
	}
	b.finish()
	return buf.String()
}

// writeTraceDir materializes a trace directory from file name -> content.
func writeTraceDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goodMeta = "num_PEs 4\nPEs_per_node 2\nlogical_sample 1\n"

// ReadSet must reject malformed or hostile trace directories with an
// error - never a panic, and never by admitting records that would blow
// up later in the analysis layer (LogicalMatrix/PhysicalMatrix index
// matrices by the PEs read from disk). A row in the paper's layout is held
// to the same rules by ImportPaper, which skips and counts it.
func TestReadSetErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		files   map[string]string
		wantErr string // substring of the error; "" means must succeed
	}{
		{
			name:    "missing meta",
			files:   map[string]string{},
			wantErr: "reading meta",
		},
		{
			name:    "empty meta",
			files:   map[string]string{"actorprof_meta.txt": ""},
			wantErr: "no num_PEs",
		},
		{
			name:    "meta with zero PEs",
			files:   map[string]string{"actorprof_meta.txt": "num_PEs 0\n"},
			wantErr: "no num_PEs",
		},
		{
			name:    "meta with negative PEs",
			files:   map[string]string{"actorprof_meta.txt": "num_PEs -3\n"},
			wantErr: "no num_PEs",
		},
		{
			name:    "meta with absurd PE count",
			files:   map[string]string{"actorprof_meta.txt": "num_PEs 9999999999\n"},
			wantErr: "refusing to allocate",
		},
		{
			name:    "meta with zero PEs per node",
			files:   map[string]string{"actorprof_meta.txt": "num_PEs 4\nPEs_per_node 0\n"},
			wantErr: "PEs_per_node",
		},
		{
			name:    "meta with non-numeric PE count",
			files:   map[string]string{"actorprof_meta.txt": "num_PEs four\n"},
			wantErr: "bad meta line",
		},
		{
			name:    "meta with unknown PAPI event",
			files:   map[string]string{"actorprof_meta.txt": "num_PEs 4\npapi_events NO_SUCH_EVENT\n"},
			wantErr: "NO_SUCH_EVENT",
		},
		{
			name: "empty logical CSV is fine",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "",
			},
		},
		{
			name: "header-only logical CSV",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "src_node,src_pe,dst_node,dst_pe,msg_size\n",
			},
			wantErr: "field 0",
		},
		{
			name: "truncated logical line",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "0,1,0\n",
			},
			wantErr: "want >= 5",
		},
		{
			name: "logical src PE out of range",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "0,7,0,1,8\n",
			},
			wantErr: "src PE 7 outside",
		},
		{
			name: "logical dst PE negative",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "0,1,0,-2,8\n",
			},
			wantErr: "dst PE -2 outside",
		},
		{
			name: "truncated PAPI line",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE1_PAPI.csv":       "0,1,0,2\n",
			},
			wantErr: "want >= 7",
		},
		{
			name: "PAPI dst PE out of range",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE1_PAPI.csv":       "0,1,0,4,8,0,1\n",
			},
			wantErr: "dst PE 4 outside",
		},
		// A Set holds a send packed, under the PE whose shard it came
		// from and with its nodes derived: a row that names another
		// source, nodes that are not its PEs', or a field wider than 32
		// bits cannot be held, and used to be folded under its own SrcPE
		// in the heatmap but under the shard's PE in the PAPI bars.
		{
			name: "logical src PE is not the shard's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "0,1,0,1,8\n",
			},
			wantErr: "src PE 1 in PE 0's shard",
		},
		{
			name: "binary logical src PE is not the shard's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.bin":       apbf(binKindLogical, []int64{0, 0, 0, 1, 8}, []int64{0, 1, 0, 1, 8}),
			},
			wantErr: "src PE 1 in PE 0's shard",
		},
		{
			name: "logical src node is not the PE's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE2_send.csv":       "0,2,0,1,8\n",
			},
			wantErr: "src node 0 for PE 2",
		},
		{
			name: "binary logical src node is not the PE's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE2_send.bin":       apbf(binKindLogical, []int64{0, 2, 0, 1, 8}),
			},
			wantErr: "src node 0 for PE 2",
		},
		{
			name: "logical dst node is not the PE's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "0,0,0,3,8\n",
			},
			wantErr: "dst node 0 for PE 3",
		},
		{
			name: "binary logical dst node is not the PE's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.bin":       apbf(binKindLogical, []int64{0, 0, 0, 3, 8}),
			},
			wantErr: "dst node 0 for PE 3",
		},
		{
			name: "logical msgSize beyond 32 bits",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.csv":       "0,0,0,1,2147483648\n",
			},
			wantErr: "msgSize 2147483648 does not fit 32 bits",
		},
		{
			name: "binary logical msgSize beyond 32 bits",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE0_send.bin":       apbf(binKindLogical, []int64{0, 0, 0, 1, 1 << 31}),
			},
			wantErr: "msgSize 2147483648 does not fit 32 bits",
		},
		{
			name: "PAPI src PE is not the shard's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE2_PAPI.csv":       "1,3,1,3,8,0,1\n",
			},
			wantErr: "PAPI record with src PE 3 in PE 2's shard",
		},
		{
			name: "binary PAPI dst node is not the PE's",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE2_PAPI.bin":       apbf(binKindPAPI, []int64{1, 2, 0, 3, 8, 0, 1}),
			},
			wantErr: "PAPI record with dst node 0 for PE 3",
		},
		{
			name: "binary PAPI NUM_SENDS beyond 32 bits",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"PE2_PAPI.bin":       apbf(binKindPAPI, []int64{1, 2, 1, 3, 8, 0, 1 << 40}),
			},
			wantErr: "NUM_SENDS 1099511627776 does not fit 32 bits",
		},
		{
			name: "physical with unknown send type",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"physical.txt":       "warp_send,1024,0,1\n",
			},
			wantErr: "unknown send type",
		},
		{
			name: "physical dst PE out of range",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"physical.txt":       "local_send,1024,0,9\n",
			},
			wantErr: "dst PE 9 outside",
		},
		{
			name: "physical truncated line",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"physical.txt":       "local_send,1024\n",
			},
			wantErr: "bad physical line",
		},
		{
			name: "overall garbage line",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"overall.txt":        "Absolute [PEx] TCOMM_PROFILING (1, 2, 3)\n",
			},
			wantErr: "bad overall line",
		},
		{
			// Overall records outside the world used to be admitted here
			// and dropped silently by every consumer.
			name: "overall PE out of range",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"overall.txt":        "Absolute [PE4] TCOMM_PROFILING (1, 2, 3)\n",
			},
			wantErr: "overall record with PE 4 outside",
		},
		{
			name: "binary overall PE out of range",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"overall.bin":        apbf(binKindOverall, []int64{0, 1, 2, 3}, []int64{-1, 1, 2, 3}),
			},
			wantErr: "overall record with PE -1 outside",
		},
		{
			name: "binary physical with unknown send type",
			files: map[string]string{
				"actorprof_meta.txt": goodMeta,
				"physical.bin":       apbf(binKindPhysical, []int64{7, 1024, 0, 1, 0}),
			},
			wantErr: "unknown send type 7",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeTraceDir(t, tc.files)
			if paperLayout(tc.files) {
				// No reader opens the paper's layout; ImportPaper counts
				// each line a reader would refuse instead of failing.
				s, skipped, err := ImportPaper(dir)
				if err != nil {
					t.Fatalf("ImportPaper: %v", err)
				}
				want, admitted := 0, len(s.Overall)
				if tc.wantErr != "" {
					want = 1
				}
				for pe := range s.Logical {
					admitted += len(s.Logical[pe]) + len(s.PAPI[pe]) + len(s.Physical[pe]) + len(s.Segments[pe])
				}
				if skipped != want || admitted != 0 {
					t.Fatalf("ImportPaper skipped %d lines and admitted %d records; want %d and 0", skipped, admitted, want)
				}
				return
			}
			s, err := ReadSet(dir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ReadSet: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("ReadSet accepted hostile input, got set with %d PEs", s.NumPEs)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ReadSet error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// paperLayout reports whether a fixture holds files of the paper's text
// layout (besides the meta file).
func paperLayout(files map[string]string) bool {
	for name := range files {
		if name != MetaFile && (strings.HasSuffix(name, ".csv") || strings.HasSuffix(name, ".txt")) {
			return true
		}
	}
	return false
}

// A trace that passes ReadSet must also be safe to analyze: the matrix
// builders index by the PEs that the readers admitted.
func TestReadSetThenMatricesNoPanic(t *testing.T) {
	dir := writeTraceDir(t, map[string]string{
		"actorprof_meta.txt": goodMeta,
		"PE0_send.bin":       apbf(binKindLogical, []int64{0, 0, 1, 3, 8}, []int64{0, 0, 0, 1, 8}),
		"PE3_send.bin":       apbf(binKindLogical, []int64{1, 3, 0, 0, 8}),
		"physical.bin": apbf(binKindPhysical, []int64{int64(conveyor.LocalSend), 1024, 0, 1, 0},
			[]int64{int64(conveyor.NonblockSend), 2048, 1, 3, 0}),
	})
	s, err := ReadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	lm := s.LogicalMatrix()
	if lm[0][3] != 1 || lm[3][0] != 1 {
		t.Errorf("logical matrix wrong: %v", lm)
	}
	pm := s.PhysicalMatrix()
	if pm[0][1] != 1 || pm[1][3] != 1 {
		t.Errorf("physical matrix wrong: %v", pm)
	}
}

// A Set is an exported struct, so its Config.Format can hold anything:
// WriteFiles must answer an out-of-range format with an error, before it
// creates anything.
func TestWriteFilesRejectsUnknownFormat(t *testing.T) {
	s := NewSet(Config{Logical: true, Physical: true, Format: FormatCSV + 1}, 2, 2)
	s.Logical[0] = []LogicalSend{{DstPE: 1, MsgSize: 8}}
	dir := filepath.Join(t.TempDir(), "out")
	err := s.WriteFiles(dir)
	if err == nil || !strings.Contains(err.Error(), "unknown trace format") {
		t.Fatalf("WriteFiles with Format %d: error %v, want one naming the unknown format", s.Config.Format, err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Errorf("WriteFiles created %s before refusing the format", dir)
	}
}
