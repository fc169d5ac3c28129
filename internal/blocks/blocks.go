// Package blocks holds what a run's records are kept in as it goes.
//
// The APBF block kernel (apbf.go) codes and decodes the blocks of the
// column-coded binary trace format, and Log (log.go) is the one per-PE
// recorder that seals rows into them: the trace collector a PE's sends
// and its physical transfers (package trace), the schedule recorder a
// PE's events, which the what-if engines read a block at a time (package
// sim). A block is Len rows.
package blocks

// Len is the number of rows per block, open or sealed, and of rows per
// APBF block as the writers code them. At 1024 a Log's open block is
// 8 KiB a column (88 KiB for the widest row, a PAPI record with four
// counters), so a PE that records a handful of rows pays for a handful of
// pages, while the per-block allocation and seal are amortised over a
// thousand rows.
const Len = 1024
