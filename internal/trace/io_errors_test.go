package trace

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// apbf encodes rows as one APBF file of the given kind.
func apbf(kind byte, rows ...[]int64) string {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	b := newBinWriter(w, kind, len(rows[0]))
	for _, row := range rows {
		b.push(row...)
	}
	b.finish()
	w.Flush()
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
// matrices by the PEs read from disk).
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

// A trace that passes ReadSet must also be safe to analyze: the matrix
// builders index by the PEs that the readers admitted.
func TestReadSetThenMatricesNoPanic(t *testing.T) {
	dir := writeTraceDir(t, map[string]string{
		"actorprof_meta.txt": goodMeta,
		"PE0_send.csv":       "0,0,1,3,8\n0,0,0,1,8\n",
		"PE3_send.csv":       "1,3,0,0,8\n",
		"physical.txt":       "local_send,1024,0,1\nnonblock_send,2048,1,3\n",
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
// WriteFiles must answer an out-of-range format with an error. It used
// to index the encodings table with it on a worker goroutine, and a
// panic there takes the whole process down.
func TestWriteFilesRejectsUnknownFormat(t *testing.T) {
	s := NewSet(Config{Logical: true, Physical: true, Format: FormatBoth + 1}, 2, 2)
	s.Logical[0] = []LogicalRecord{{SrcPE: 0, DstPE: 1, MsgSize: 8}}
	dir := filepath.Join(t.TempDir(), "out")
	err := s.WriteFiles(dir)
	if err == nil || !strings.Contains(err.Error(), "unknown trace format") {
		t.Fatalf("WriteFiles with Format %d: error %v, want one naming the unknown format", s.Config.Format, err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Errorf("WriteFiles created %s before refusing the format", dir)
	}
	if _, err := openSinks(&logicalKind, t.TempDir(), 0, s.Config.Format, nil); err == nil {
		t.Error("openSinks accepted an unknown format")
	}
}
