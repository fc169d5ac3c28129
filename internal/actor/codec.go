// Package actor implements HClib-Actor: the actor/selector layer that
// realizes the Fine-grained Asynchronous Bulk Synchronous Parallel
// (FA-BSP) model on top of the simulated OpenSHMEM runtime and the
// Conveyors aggregation library.
//
// The programming model matches the paper's Listings 1-2: each PE
// creates a Selector with one or more mailboxes, installs a Process
// handler per mailbox, and inside a Finish scope calls Start, issues
// fine-grained asynchronous Sends, and finally Done. The runtime
// aggregates messages through Conveyors, interleaves message handling
// with the sender's local computation, and guarantees that handlers of
// one PE never run concurrently with that PE's own code - which is why
// Listing 2 needs no atomics.
//
// This package also hosts ActorProf's instrumentation points: the
// logical (pre-aggregation) send trace, the PAPI user-region counters,
// and the MAIN/PROC/COMM cycle attribution of the overall profile.
package actor

import (
	"encoding/binary"
	"math"
)

// Codec serializes fixed-size messages of type T for transport through a
// conveyor. Size must be the exact encoded size; Encode writes into a
// Size-byte buffer and Decode reads from one.
//
// DecodeBatch is optional: when non-nil it bulk-decodes a delivered
// buffer of len(dst) back-to-back Size-byte records from raw into dst
// and returns how many it decoded (a partial count is legal; the runtime
// finishes the tail with Decode). Dispatch uses it to turn a run's n
// decoder calls into one flat loop; without it the runtime falls back to
// Decode per message.
type Codec[T any] struct {
	Size        int
	Encode      func(buf []byte, v T)
	Decode      func(buf []byte) T
	DecodeBatch func(dst []T, raw []byte) int
}

// Int64Codec transports a single int64 (8 bytes).
func Int64Codec() Codec[int64] {
	return Codec[int64]{
		Size:   8,
		Encode: func(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) },
		Decode: func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) },
		DecodeBatch: func(dst []int64, raw []byte) int {
			for i := range dst {
				dst[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
			}
			return len(dst)
		},
	}
}

// Pair is a two-field message, the shape of the triangle-counting
// active message (row j, column k).
type Pair struct{ A, B int64 }

// PairCodec transports a Pair (16 bytes).
func PairCodec() Codec[Pair] {
	return Codec[Pair]{
		Size: 16,
		Encode: func(b []byte, v Pair) {
			binary.LittleEndian.PutUint64(b, uint64(v.A))
			binary.LittleEndian.PutUint64(b[8:], uint64(v.B))
		},
		Decode: func(b []byte) Pair {
			return Pair{
				A: int64(binary.LittleEndian.Uint64(b)),
				B: int64(binary.LittleEndian.Uint64(b[8:])),
			}
		},
		DecodeBatch: func(dst []Pair, raw []byte) int {
			for i := range dst {
				b := raw[i*16:]
				dst[i] = Pair{
					A: int64(binary.LittleEndian.Uint64(b)),
					B: int64(binary.LittleEndian.Uint64(b[8:])),
				}
			}
			return len(dst)
		},
	}
}

// Triple is a three-field message (e.g. vertex, value, hop).
type Triple struct{ A, B, C int64 }

// TripleCodec transports a Triple (24 bytes).
func TripleCodec() Codec[Triple] {
	return Codec[Triple]{
		Size: 24,
		Encode: func(b []byte, v Triple) {
			binary.LittleEndian.PutUint64(b, uint64(v.A))
			binary.LittleEndian.PutUint64(b[8:], uint64(v.B))
			binary.LittleEndian.PutUint64(b[16:], uint64(v.C))
		},
		Decode: func(b []byte) Triple {
			return Triple{
				A: int64(binary.LittleEndian.Uint64(b)),
				B: int64(binary.LittleEndian.Uint64(b[8:])),
				C: int64(binary.LittleEndian.Uint64(b[16:])),
			}
		},
		DecodeBatch: func(dst []Triple, raw []byte) int {
			for i := range dst {
				b := raw[i*24:]
				dst[i] = Triple{
					A: int64(binary.LittleEndian.Uint64(b)),
					B: int64(binary.LittleEndian.Uint64(b[8:])),
					C: int64(binary.LittleEndian.Uint64(b[16:])),
				}
			}
			return len(dst)
		},
	}
}

// U32Pair is a compact two-field message (8 bytes on the wire), matching
// the paper's observation that irregular-application messages are
// typically 8-32 bytes.
type U32Pair struct{ A, B uint32 }

// U32PairCodec transports a U32Pair (8 bytes).
func U32PairCodec() Codec[U32Pair] {
	return Codec[U32Pair]{
		Size: 8,
		Encode: func(b []byte, v U32Pair) {
			binary.LittleEndian.PutUint32(b, v.A)
			binary.LittleEndian.PutUint32(b[4:], v.B)
		},
		Decode: func(b []byte) U32Pair {
			return U32Pair{
				A: binary.LittleEndian.Uint32(b),
				B: binary.LittleEndian.Uint32(b[4:]),
			}
		},
		DecodeBatch: func(dst []U32Pair, raw []byte) int {
			for i := range dst {
				b := raw[i*8:]
				dst[i] = U32Pair{
					A: binary.LittleEndian.Uint32(b),
					B: binary.LittleEndian.Uint32(b[4:]),
				}
			}
			return len(dst)
		},
	}
}

// FloatPair is a vertex/weight message for value-propagating algorithms
// such as PageRank.
type FloatPair struct {
	Index int64
	Value float64
}

// FloatPairCodec transports a FloatPair (16 bytes).
func FloatPairCodec() Codec[FloatPair] {
	return Codec[FloatPair]{
		Size: 16,
		Encode: func(b []byte, v FloatPair) {
			binary.LittleEndian.PutUint64(b, uint64(v.Index))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v.Value))
		},
		Decode: func(b []byte) FloatPair {
			return FloatPair{
				Index: int64(binary.LittleEndian.Uint64(b)),
				Value: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			}
		},
		DecodeBatch: func(dst []FloatPair, raw []byte) int {
			for i := range dst {
				b := raw[i*16:]
				dst[i] = FloatPair{
					Index: int64(binary.LittleEndian.Uint64(b)),
					Value: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
				}
			}
			return len(dst)
		},
	}
}
