package blocks

import (
	"bytes"
	"fmt"
	"io"
)

// Log is one PE's append-only log of rows of int64 columns, kept as
// APBF blocks: an open block of Len rows at most, which its owner fills a
// row at a time, and the blocks sealed before it, each coded once at
// exactly its size. The trace collector keeps a PE's sends in two and its
// physical transfers in a third, the schedule recorder a PE's events in
// one. WriteFile writes a log as an APBF file, Read reads one back
// without copying its blocks, and Block decodes one block at a time for a
// walk. The column count is the owner's, which every call that needs it
// passes. The zero value is an empty log. Not safe for concurrent use: one
// goroutine owns a Log while it records; it is read-only afterwards.
type Log struct {
	open   [][]int64 // the open block's columns, Len rows each; nil until Open
	n      int       // the open rows
	sealed [][]byte  // the sealed blocks, each one coded APBF block
	rows   int       // the rows in sealed
	enc    []byte    // Seal's coding scratch
}

// Open gives the log an open block of ncols columns if it has none, and
// returns its columns. A seal keeps the columns as they are, so a column
// whose value is the same in every row is filled once, when its block
// opens.
func (l *Log) Open(ncols int) [][]int64 {
	if l.open != nil {
		return l.open
	}
	words := make([]int64, ncols*Len)
	l.open = make([][]int64, ncols)
	for c := range l.open {
		l.open[c] = words[c*Len:][:Len:Len]
	}
	return l.open
}

// Filling returns the open block's columns and its rows filled: its owner
// fills row n, and counts it with Add, or amends row n-1.
func (l *Log) Filling() ([][]int64, int) { return l.open, l.n }

// Add counts the row Filling named n as filled and reports whether the
// block is now full, for its owner to seal.
func (l *Log) Add() bool {
	l.n++
	return l.n == Len
}

// Seal codes the open rows as one block of exactly its size and adds it
// to the sealed blocks.
func (l *Log) Seal() {
	if l.n == 0 {
		return
	}
	l.enc = AppendBlock(l.enc[:0], l.n, nil, l.open)
	l.sealed = append(l.sealed, bytes.Clone(l.enc))
	l.rows, l.n = l.rows+l.n, 0
}

// Close seals the open rows and lets the open block and the coding
// scratch go. Rows added afterwards open a new block.
func (l *Log) Close() {
	l.Seal()
	l.open, l.enc = nil, nil
}

// Len returns the number of rows in the log.
func (l *Log) Len() int { return l.rows + l.n }

// Blocks returns the number of sealed blocks.
func (l *Log) Blocks() int { return len(l.sealed) }

// WriteFile writes the log as an APBF file of kind and ncols columns: the
// header, the sealed blocks as they are, then the open rows, coded.
func (l *Log) WriteFile(w io.Writer, kind byte, ncols int) error {
	_, err := w.Write(AppendHeader(nil, kind, ncols))
	for _, b := range l.sealed {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	if err == nil && l.n > 0 {
		_, err = w.Write(AppendBlock(nil, l.n, nil, l.open))
	}
	return err
}

// Read reads data, an APBF file of kind and ncols columns whose blocks
// hold Len rows at most, into the empty log as its sealed blocks, which
// stay in data. Each block is decoded once, into scratch (a column each,
// Len rows long), and handed to check before it joins the log.
func (l *Log) Read(data []byte, kind byte, ncols int, scratch [][]int64, check func(cols [][]int64, n int)) error {
	got, p, err := Header(data, kind)
	if err != nil {
		return err
	}
	if got != uint64(ncols) {
		return fmt.Errorf("%d columns, want %d", got, ncols)
	}
	// Sealed blocks hold Len rows of a byte a value at least, all but the
	// last: room for their number, grown once.
	l.sealed = make([][]byte, 0, len(data)/(ncols*Len)+1)
	for p < len(data) {
		if n, _, err := Uvarint(data, p); err == nil && n > Len {
			return fmt.Errorf("block at byte %d claims %d rows (max %d)", p, n, Len)
		}
		n, next, _, err := ReadBlock(data, p, false, scratch, nil)
		if err != nil {
			return fmt.Errorf("block at byte %d: %w", p, err)
		}
		check(scratch, n)
		l.sealed, l.rows, p = append(l.sealed, data[p:next:next]), l.rows+n, next
	}
	return nil
}

// Block returns block i's columns and rows, valid until scratch is
// decoded into again: sealed block i decoded into scratch (a column each,
// Len rows long) while i < Blocks(), then the open rows, then none.
func (l *Log) Block(i int, scratch [][]int64) (cols [][]int64, n int) {
	switch {
	case i < len(l.sealed):
		n, _, _, err := ReadBlock(l.sealed[i], 0, false, scratch, nil)
		if err != nil {
			panic("blocks: a sealed block does not decode: " + err.Error())
		}
		return scratch, n
	case i == len(l.sealed):
		return l.open, l.n
	}
	return nil, 0
}
