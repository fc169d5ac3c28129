package blocks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// The APBF block kernel: how a file of the column-coded binary trace
// format (ActorProf Binary Format) codes its header and its blocks of
// zigzag varints. Package trace owns the record kinds and their files,
// package sim the schedule's shards; both code and read their blocks here.
//
//	header : "APBF" | version (1 byte) | kind (1 byte) | uvarint ncols
//	block  : uvarint nrows (>0)
//	         [string-bearing kinds only] nrows strings (uvarint len | bytes)
//	         ncols columns, each nrows zigzag-varint int64s
//	... blocks repeat until EOF
const (
	Magic   = "APBF"
	Version = 1

	// MaxRows / MaxCols / MaxStr bound what a (possibly hostile) header
	// or block may claim, so a corrupt file cannot drive a reader into
	// huge allocations.
	MaxRows = 1 << 20
	MaxCols = 1 << 10
	MaxStr  = 1 << 16
)

// Zigzag maps a signed value to an unsigned one that is small when the
// value is near zero; Unzigzag inverts it.
func Zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendHeader codes the header of an APBF file of kind/ncols.
func AppendHeader(buf []byte, kind byte, ncols int) []byte {
	return binary.AppendUvarint(append(append(buf, Magic...), Version, kind), uint64(ncols))
}

// Header checks the header at the start of data, of a file of kind
// wantKind: its column count, unchecked, and the offset of its first block.
func Header(data []byte, wantKind byte) (ncols uint64, p int, err error) {
	hdr := len(Magic) + 2
	switch {
	case len(data) < hdr:
		return 0, 0, fmt.Errorf("truncated binary header: %w", io.ErrUnexpectedEOF)
	case string(data[:4]) != Magic:
		return 0, 0, fmt.Errorf("bad magic %q in binary header", data[:4])
	case data[4] != Version:
		return 0, 0, fmt.Errorf("unsupported binary trace version %d (want %d)", data[4], Version)
	case data[5] != wantKind:
		return 0, 0, fmt.Errorf("binary record kind %d, want %d", data[5], wantKind)
	}
	if ncols, p, err = Uvarint(data, hdr); err != nil {
		return 0, 0, fmt.Errorf("truncated binary header: %w", err)
	}
	return ncols, p, nil
}

// AppendBlock codes rows 0..n-1 of cols (and strs, for the kinds that
// have them) as one APBF block: every writer's encoder, Log.Seal's too.
func AppendBlock(buf []byte, n int, strs []string, cols [][]int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, s := range strs {
		buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	for _, col := range cols {
		buf = appendColumn(buf, col[:n])
	}
	return buf
}

// appendColumn appends col as zigzag varints. Values that fit one byte -
// most of a send block's - are stored by index into room grown once; from
// the first that does not on, they are appended one by one.
func appendColumn(buf []byte, col []int64) []byte {
	n := len(buf)
	buf = slices.Grow(buf, len(col))[:n+len(col)]
	out := buf[n:]
	for i, v := range col[:len(out)] {
		if u := Zigzag(v); u < 0x80 {
			out[i] = byte(u)
			continue
		}
		buf = buf[:n+i]
		for _, v := range col[i:] {
			buf = binary.AppendUvarint(buf, Zigzag(v))
		}
		break
	}
	return buf
}

// Uvarint decodes the varint at data[p:] and returns it with the offset
// past it. A varint the end of data cuts off is io.ErrUnexpectedEOF; one
// past 64 bits is corruption, never a panic.
func Uvarint(data []byte, p int) (uint64, int, error) {
	switch u, n := binary.Uvarint(data[p:]); {
	case n > 0:
		return u, p + n, nil
	case n == 0:
		return 0, p, io.ErrUnexpectedEOF
	}
	return 0, p, errors.New("varint overflows a 64-bit integer")
}

// ReadBlock decodes the block at data[p:] into cols (and *strs, when strs
// is not nil): its row count and the offset past it. more says the bytes
// go on past data: a block that runs past its end then returns
// io.ErrUnexpectedEOF, bare, for the caller to read more and retry. A torn
// or corrupt block returns lost, the number of rows it claimed (one when
// its header is unreadable), and an error.
func ReadBlock(data []byte, p int, more bool, cols [][]int64, strs *[]string) (n, next, lost int, err error) {
	n64, p, err := Uvarint(data, p)
	switch {
	case err == io.ErrUnexpectedEOF && more:
		return 0, 0, 1, err
	case err != nil:
		return 0, 0, 1, fmt.Errorf("torn binary block header: %w", err)
	case n64 == 0 || n64 > MaxRows:
		return 0, 0, 1, fmt.Errorf("binary block claims %d rows (max %d)", n64, MaxRows)
	}
	n = int(n64)
	torn := func(err error) (int, int, int, error) {
		if err == io.ErrUnexpectedEOF && more {
			return 0, 0, n, err
		}
		return 0, 0, n, fmt.Errorf("torn binary block: %w", err)
	}
	// Every value takes a byte at least: a block claiming more than the
	// bytes left is torn before any column is sized for it.
	if left := len(data) - p; n*len(cols) > left && more {
		return torn(io.ErrUnexpectedEOF)
	} else if n*len(cols) > left {
		return torn(fmt.Errorf("%d rows of %d columns in the %d bytes left", n, len(cols), left))
	}
	if strs != nil {
		*strs = (*strs)[:0]
		for i := 0; i < n; i++ {
			l, next, err := Uvarint(data, p)
			switch {
			case err != nil:
				return torn(err)
			case l > MaxStr:
				return torn(fmt.Errorf("string length %d (max %d)", l, MaxStr))
			case next+int(l) > len(data):
				return torn(io.ErrUnexpectedEOF)
			}
			p = next + int(l)
			*strs = append(*strs, string(data[next:p]))
		}
	}
	for c, col := range cols {
		col = slices.Grow(col[:0], n)[:n]
		i := 0
		// Eight one-byte varints - most of a send block's values - a word at a time.
		for ; i+8 <= n && p+8 <= len(data); i, p = i+8, p+8 {
			u := binary.LittleEndian.Uint64(data[p:])
			if u&0x8080808080808080 != 0 {
				break
			}
			c := col[i : i+8 : i+8]
			c[0], c[1], c[2], c[3] = Unzigzag(u&0x7f), Unzigzag(u>>8&0x7f), Unzigzag(u>>16&0x7f), Unzigzag(u>>24&0x7f)
			c[4], c[5], c[6], c[7] = Unzigzag(u>>32&0x7f), Unzigzag(u>>40&0x7f), Unzigzag(u>>48&0x7f), Unzigzag(u>>56)
		}
		for ; i < n; i++ {
			if p < len(data) && data[p] < 0x80 {
				col[i] = Unzigzag(uint64(data[p]))
				p++
				continue
			}
			// A varint of up to eight bytes from one word, with no branch
			// on its length: its last byte is the first without the high
			// bit, and its 7-bit groups are packed in three steps. The
			// bytes' tail, longer varints and every error go through Uvarint.
			if p+8 <= len(data) {
				u := binary.LittleEndian.Uint64(data[p:])
				if ends := ^u & 0x8080808080808080; ends != 0 {
					k := bits.TrailingZeros64(ends) + 1 // the varint's bits, 8 a byte
					u &= ^uint64(0) >> (64 - k) & 0x7f7f7f7f7f7f7f7f
					u = u&0x007f007f007f007f | (u&0x7f007f007f007f00)>>1
					u = u&0x00003fff00003fff | (u&0x3fff00003fff0000)>>2
					u = u&0x000000000fffffff | (u&0x0fffffff00000000)>>4
					col[i], p = Unzigzag(u), p+k/8
					continue
				}
			}
			u, next, err := Uvarint(data, p)
			if err != nil {
				return torn(err)
			}
			col[i], p = Unzigzag(u), next
		}
		cols[c] = col
	}
	return n, p, 0, nil
}
