package main

import (
	"fmt"
	"sort"
	"strings"
)

// hotPath names the benchmarks whose hot-path guarantees gate CI:
// allocs/op may not rise at all. Other benchmarks are compared
// informationally.
var hotPath = map[string]bool{
	"BenchmarkPushThroughput":  true,
	"BenchmarkPushPullLocal":   true,
	"BenchmarkHandlerDispatch": true,
	// The batched dispatch drain: its 0 allocs/op steady state is part
	// of the ProcessBatch contract, so any allocation regression fails.
	// (BenchmarkISort rides along informationally - it is an end-to-end
	// app run whose alloc count is not a hot-path guarantee.)
	"BenchmarkHandlerDispatchBatch": true,
	"BenchmarkCodecRoundTrip":       true,
	// The per-message floor: pricing a message's work, a heap word read
	// and written, one received buffer delivered or forwarded.
	"BenchmarkRuntimeWork":     true,
	"BenchmarkLoadInt64":       true,
	"BenchmarkPutInt64Foreign": true,
	"BenchmarkIngestForward":   true,
	"BenchmarkIngestDeliver":   true,
	// Trace-pipeline I/O: the parallel sharded reader/writer of both
	// formats (APBF alone, APBF plus the paper's layout), plus the
	// per-line append helper whose zero-allocation contract the
	// allocs/op check enforces.
	"BenchmarkReadSet/format=csv":        true,
	"BenchmarkReadSet/format=binary":     true,
	"BenchmarkWriteFiles/format=csv":     true,
	"BenchmarkWriteFiles/format=binary":  true,
	"BenchmarkReadSummary/format=csv":    true,
	"BenchmarkReadSummary/format=binary": true,
	"BenchmarkAppendLogicalLine":         true,
	// A traced send through the collector, its sealing and its hand-over
	// at Close: record mode may not allocate per send.
	"BenchmarkCollectFullTrace": true,
	// Windowed trace queries: the O(window) indexed paths gate (their
	// cost must track the window, not the trace); the full-scan
	// reference rides along informationally.
	"BenchmarkWindowQueryEvents":  true,
	"BenchmarkWindowQueryPyramid": true,
	// What-if engines: the analytic projection (critical path +
	// bottleneck ranking) and the deterministic replay, both sized by
	// the recorded schedule, both allocation-stable per query.
	"BenchmarkCriticalPath": true,
	"BenchmarkWhatIfReplay": true,
	// What one /whatif render runs: both projections and the replay.
	"BenchmarkCompare": true,
	// schedule.json's codec over a recorded 16-PE trianglecount
	// schedule: a write allocates O(1), a read O(PEs), neither per event.
	"BenchmarkWriteScheduleFile": true,
	"BenchmarkReadScheduleFile":  true,
	// actorprofd's render miss: a heatmap SVG allocates its document
	// string, not a per-cell title or a growing buffer, and a gzip
	// variant its exact-size copies, not a compressor.
	"BenchmarkRenderHeatmapSVG": true,
	"BenchmarkWithGzip":         true,
	// actorprofd's cache hit and revalidation through the whole handler:
	// no goroutine, no timer, no buffered copy of the body.
	"BenchmarkServeHit/svg/identity":  true,
	"BenchmarkServeHit/svg/gzip":      true,
	"BenchmarkServeHit/svg/304":       true,
	"BenchmarkServeHit/json/identity": true,
	"BenchmarkServeHit/json/gzip":     true,
	"BenchmarkServeHit/json/304":      true,
}

// compare checks current against baseline: for hot-path benchmarks any
// allocs/op increase fails, and so does one missing from current.
// Allocation counts are the same on every machine; ns/op is not, and the
// baseline comes from another one, so ns/op deltas are printed for the
// reader and never fail. Non-hot benchmarks are reported but never fatal
// (figure-scale runs allocate by design). Returns the human-readable
// report and the failure count.
func compare(baseline, current File) (string, int) {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Package+"."+r.Name] = r
	}
	keys := make([]string, 0, len(baseline.Results))
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		k := r.Package + "." + r.Name
		keys = append(keys, k)
		base[k] = r
	}
	sort.Strings(keys)

	var b strings.Builder
	failures := 0
	for _, k := range keys {
		old := base[k]
		hot := hotPath[old.Name]
		now, ok := cur[k]
		if !ok {
			if hot {
				failures++
				fmt.Fprintf(&b, "FAIL  %s: hot-path benchmark missing from current results\n", k)
			} else {
				fmt.Fprintf(&b, "skip  %s: not in current results\n", k)
			}
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = (now.NsPerOp - old.NsPerOp) / old.NsPerOp
		}
		tag := "ok  "
		if now.AllocsPerOp > old.AllocsPerOp {
			tag = "warn"
			if hot {
				failures++
				tag = "FAIL"
			}
		}
		fmt.Fprintf(&b, "%s  %s: ns/op %.5g -> %.5g (%+.1f%%), allocs/op %.4g -> %.4g\n",
			tag, k, old.NsPerOp, now.NsPerOp, 100*delta, old.AllocsPerOp, now.AllocsPerOp)
	}
	if failures == 0 {
		fmt.Fprintf(&b, "benchmark gate passed: %d compared\n", len(keys))
	} else {
		fmt.Fprintf(&b, "benchmark gate FAILED: %d hot-path benchmark(s) allocate more or are missing\n", failures)
	}
	return b.String(), failures
}
