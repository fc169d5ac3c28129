package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"actorprof/internal/conveyor"
)

// fuzzWindowResult builds a WindowResult from the fuzzer's values: nev
// events and nbk buckets whose fields a splitmix stream seeded with seed
// draws over the whole int64 range, negative values and extremes
// included. A zero count with an odd seed leaves an empty, non-nil
// slice, which omitempty must drop like a nil one.
func fuzzWindowResult(domain string, lod int, width, tmin, tmax int64, nev, nbk uint8, seed uint64,
	truncated, fullScan bool, blocksRead, totalBlocks int) *WindowResult {
	next := func() int64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		v := int64(z ^ z>>31)
		switch v & 7 {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return 0
		case 3:
			return v >> 48 // small, either sign
		}
		return v
	}
	r := &WindowResult{
		DomainName: domain, LOD: lod, BucketWidth: width, TMin: tmin, TMax: tmax,
		Truncated: truncated, BlocksRead: blocksRead, TotalBlocks: totalBlocks, FullScan: fullScan,
	}
	if seed&1 == 1 {
		r.Events, r.Buckets = []WindowEvent{}, []WindowBucket{}
	}
	for i := 0; i < int(nev); i++ {
		r.Events = append(r.Events, WindowEvent{TS: next(), Kind: conveyor.SendKind(next()),
			BufBytes: int(next()), SrcPE: int(next()), DstPE: int(next())})
	}
	for i := 0; i < int(nbk); i++ {
		r.Buckets = append(r.Buckets, WindowBucket{T0: next(), T1: next(),
			PyramidBucket: PyramidBucket{Count: next(), Bytes: next(), Kinds: [3]int64{next(), next(), next()}}})
	}
	return r
}

// FuzzWindowResultJSON: for any result, AppendJSON writes exactly the
// bytes json.Marshal writes, after whatever the buffer already held.
func FuzzWindowResultJSON(f *testing.F) {
	f.Add("cycles", 0, int64(0), int64(1), int64(65536), uint8(3), uint8(0), uint64(2), true, false, 4, 256)
	f.Add("sequence", 2, int64(4096), int64(-5), int64(0), uint8(0), uint8(4), uint64(4), false, true, 0, 0)
	f.Add("", -1, int64(-1), int64(math.MinInt64), int64(math.MaxInt64), uint8(0), uint8(0), uint64(1), false, false, -3, 1)
	f.Add("<a&b>\"\\\x00\x1f  é\xff", 64, int64(1), int64(0), int64(0), uint8(2), uint8(2), uint64(7), true, true, 1, 2)
	f.Fuzz(func(t *testing.T, domain string, lod int, width, tmin, tmax int64, nev, nbk uint8, seed uint64,
		truncated, fullScan bool, blocksRead, totalBlocks int) {
		r := fuzzWindowResult(domain, lod, width, tmin, tmax, nev, nbk, seed, truncated, fullScan, blocksRead, totalBlocks)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.AppendJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendJSON wrote\n%s\njson.Marshal\n%s", got[1:], want)
		}
	})
}

// windowJSONOp codes the /events body of benchWindows[w]'s result into
// a reused buffer.
func windowJSONOp(tb testing.TB, w int) func() {
	dir := benchIndexedDir(tb, 64, 4096)
	ix, err := LoadTimeIndex(dir)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ix.Query(dir, benchWindows[w].at(ix))
	if err != nil {
		tb.Fatal(err)
	}
	buf := res.AppendJSON(nil)
	return func() { buf = res.AppendJSON(buf[:0]) }
}

func BenchmarkWindowJSON(b *testing.B) {
	for w, c := range benchWindows {
		b.Run(c.name, func(b *testing.B) { loop(b, windowJSONOp(b, w)) })
	}
}
