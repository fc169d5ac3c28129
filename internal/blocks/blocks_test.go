package blocks

import (
	"bytes"
	"slices"
	"testing"
)

// TestLogBlockBoundaries: a Log filled a row at a time, each full block
// sealed as it fills, walks back every row in order, open or closed;
// writes the file that AppendHeader and one AppendBlock per Len rows
// code; reads that file back as the same rows; and keeps a column filled
// once, when its block opened, across every seal.
func TestLogBlockBoundaries(t *testing.T) {
	const kind, ncols = 9, 3
	for _, n := range []int{0, 1, Len - 1, Len, Len + 1, 3*Len + 7} {
		var l Log
		want := [ncols][]int64{}
		for i := 0; i < n; i++ {
			if c, _ := l.Filling(); c == nil {
				l.Open(ncols)
				c, _ = l.Filling()
				for r := range c[0] {
					c[0][r] = 7
				}
			}
			c, j := l.Filling()
			c[1][j], c[2][j] = int64(i), int64(-i*i)
			for col, v := range []int64{7, int64(i), int64(-i * i)} {
				want[col] = append(want[col], v)
			}
			if l.Add() {
				l.Seal()
			}
		}
		file := AppendHeader(nil, kind, ncols)
		for lo := 0; lo < n; lo += Len {
			hi := min(lo+Len, n)
			file = AppendBlock(file, hi-lo, nil, [][]int64{want[0][lo:hi], want[1][lo:hi], want[2][lo:hi]})
		}
		scratch := func() [][]int64 {
			return [][]int64{make([]int64, Len), make([]int64, Len), make([]int64, Len)}
		}
		walk := func(name string, l *Log) {
			t.Helper()
			got, s := [ncols][]int64{}, scratch()
			for i := 0; ; i++ {
				cols, m := l.Block(i, s)
				if m == 0 {
					break
				}
				for c := range got {
					got[c] = append(got[c], cols[c][:m]...)
				}
			}
			for c := range got {
				if !slices.Equal(got[c], want[c]) || l.Len() != n {
					t.Fatalf("n=%d, %s: column %d walks back %d rows of %d (Len %d)", n, name, c, len(got[c]), n, l.Len())
				}
			}
		}
		var buf bytes.Buffer
		for _, closed := range []bool{false, true} {
			name := map[bool]string{false: "open", true: "closed"}[closed]
			if closed {
				l.Close()
			}
			walk(name, &l)
			buf.Reset()
			if err := l.WriteFile(&buf, kind, ncols); err != nil || !bytes.Equal(buf.Bytes(), file) {
				t.Fatalf("n=%d, %s: WriteFile wrote %d bytes (%v), the blocks code %d", n, name, buf.Len(), err, len(file))
			}
		}
		var back Log
		blocksRead := 0
		if err := back.Read(file, kind, ncols, scratch(), func([][]int64, int) { blocksRead++ }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if blocksRead != back.Blocks() || back.Blocks() != (n+Len-1)/Len {
			t.Fatalf("n=%d: read %d blocks, checked %d, want %d", n, back.Blocks(), blocksRead, (n+Len-1)/Len)
		}
		walk("read", &back)
	}
}
