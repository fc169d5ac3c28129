package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles gates result file b against result file a: for every
// workload and end-to-end metric it prints both medians, their ratio
// (b over a), the bound, and a verdict. A metric is "worse" when b's
// median is beyond the bound in the bad direction, "unresolved" when the
// spread inside either file is wider than the bound (the difference
// cannot be told from noise), "ok" otherwise. It refuses files measured
// with a different seed, size or GOMAXPROCS.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			worse, cerr := compareResults(a, b, stdout)
			if cerr == nil && worse == 0 {
				return 0
			}
			if cerr == nil {
				cerr = fmt.Errorf("%d metric(s) worse or more failures", worse)
			}
			err = cerr
		}
	}
	fmt.Fprintln(stderr, "benchmark: compare:", err)
	return 1
}

func compareResults(a, b *resultFile, w io.Writer) (worse int, err error) {
	if a.Seed != b.Seed || a.GOMAXPROCS != b.GOMAXPROCS || a.Size != b.Size || a.Seconds != b.Seconds {
		return 0, fmt.Errorf("results are not comparable: seed %d/%d, GOMAXPROCS %d/%d, size %s/%s, seconds %g/%g",
			a.Seed, b.Seed, a.GOMAXPROCS, b.GOMAXPROCS, a.Size, b.Size, a.Seconds, b.Seconds)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %6s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			return worse, fmt.Errorf("workload %s is missing from the second file", name)
		}
		verdict := "ok"
		if wb.FailRatio > wa.FailRatio {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-16s %-22s %14g %14g %9s %6s  %s\n", name, "fail_ratio", wa.FailRatio, wb.FailRatio, "", "0", verdict)
		for _, n := range sortedNames(wa.Metrics, gated, endToEnd) {
			d, _ := metricByName(n)
			sa, sb := wa.Metrics[n], wb.Metrics[n]
			if sb.N == 0 || sa.Median == 0 {
				continue
			}
			ratio := sb.Median / sa.Median
			verdict := "ok"
			switch {
			case max(sa.spread(), sb.spread()) > d.bound:
				verdict = "unresolved"
			case d.better == "lower" && ratio > 1+d.bound, d.better == "higher" && ratio < 1-d.bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %9.4f %5.0f%%  %s\n", name, n, sa.Median, sb.Median, ratio, d.bound*100, verdict)
		}
	}
	return worse, nil
}
