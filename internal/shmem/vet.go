package shmem

// This file is the package's static-analysis contract: the canonical
// list of the OpenSHMEM entry points that address the symmetric heap by
// raw offset, which actorvet's rawoffset rule (internal/analysis)
// checks. Keeping the list next to the methods it describes means a new
// RMA routine is added in one review, not rediscovered by the linter
// months later. The collective and handler disciplines are checked where
// they run (sync.go).

// RawOffsetMethods returns, for each *PE (and Int64Array-bypassing) RMA
// method that addresses the symmetric heap by raw byte offset, the index
// of its offset parameter. The typed Int64Array accessors bounds-check
// every access; code that computes offsets by hand (off+8*i) bypasses
// those checks, which the rawoffset analyzer flags.
func RawOffsetMethods() map[string]int {
	return map[string]int{
		"Put":                 1,
		"PutInt64":            1,
		"PutNBI":              1,
		"Get":                 1,
		"GetInt64":            1,
		"AtomicFetchAddInt64": 1,
		"CopyLocal":           1,
		"ReadLocal":           1,
		"LoadInt64":           1,
		"StoreInt64Local":     0,
		"LoadBytesLocal":      0,
		"StoreBytesLocal":     0,
		"WaitUntilInt64":      0,
	}
}
