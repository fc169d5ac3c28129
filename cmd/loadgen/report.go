package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// reportSchema versions LOAD.json so a gate never silently compares
// incompatible documents.
const reportSchema = 1

// RunConfig records every knob that shaped a load run, so a committed
// LOAD.json is reproducible and a compare knows it is diffing like
// against like.
type RunConfig struct {
	Transport       string  `json:"transport"` // "inproc" or "http"
	Target          string  `json:"target"`    // the URL or the trace root
	Clients         int     `json:"clients"`
	DurationS       float64 `json:"duration_s"`
	WarmupS         float64 `json:"warmup_s"`
	ZipfS           float64 `json:"zipf_s"`
	Seed            uint64  `json:"seed"`
	ScanFrac        float64 `json:"scan_frac"`
	RunsFrac        float64 `json:"runs_frac"`
	ConditionalFrac float64 `json:"conditional_frac"`
	GzipFrac        float64 `json:"gzip_frac"`
	Runs            int     `json:"runs"`    // run directories discovered
	Targets         int     `json:"targets"` // plot URLs in the zipfian pool
}

// Totals aggregates the measured window (warmup excluded).
type Totals struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"` // transport-level failures
	Bytes    int64 `json:"bytes"`
	// ClientsActive counts clients that completed at least one measured
	// request. A closed-loop harness only records requests that finish,
	// so quantiles alone are survivorship-biased: a server that parks
	// most clients in never-finishing requests can post *better*
	// latencies than one serving everybody. ClientsActive < Clients is
	// that starvation, made visible.
	ClientsActive int     `json:"clients_active"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// ClassStats is the per-traffic-class breakdown ("plot", "scan",
// "runs").
type ClassStats struct {
	Requests int64     `json:"requests"`
	Latency  Quantiles `json:"latency_us"`
}

// Report is the LOAD.json document.
type Report struct {
	Schema  int                   `json:"schema"`
	Config  RunConfig             `json:"config"`
	Totals  Totals                `json:"totals"`
	Status  map[string]int64      `json:"status"`           // HTTP status -> count
	Errors  map[string]int64      `json:"errors,omitempty"` // transport error -> count
	Latency Quantiles             `json:"latency_us"`
	Classes map[string]ClassStats `json:"classes"`
}

func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return Report{}, fmt.Errorf("%s: schema %d, this loadgen speaks %d", path, r.Schema, reportSchema)
	}
	return r, nil
}

func writeReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// errorRate is the fraction of measured requests that failed outright
// or came back 5xx. 4xx is not counted: with a well-formed target pool
// it never happens, and if a config error makes it happen the status
// map shows it.
func (r Report) errorRate() float64 {
	if r.Totals.Requests == 0 {
		return 0
	}
	bad := r.Totals.Errors
	for code, n := range r.Status {
		if strings.HasPrefix(code, "5") {
			bad += n
		}
	}
	return float64(bad) / float64(r.Totals.Requests)
}

// gateOpts are the compare thresholds. Latencies are microseconds to
// match the report.
type gateOpts struct {
	threshold    float64 // relative p99 regression budget vs baseline
	floorUs      int64   // ignore p99 regressions below this absolute value
	maxP99Us     int64   // absolute p99 budget (0 disables)
	maxErrorRate float64
	minActive    float64 // fraction of clients that must complete >= 1 request
}

// compareReports gates current against baseline: it returns the
// human-readable report and the failure count.
// The p99 gate is relative-with-floor (CI hardware varies, so small
// absolute latencies are allowed to wobble); -max-p99 adds an absolute
// ceiling for runs on known hardware.
func compareReports(baseline, current Report, opts gateOpts) (string, int) {
	var b strings.Builder
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(&b, "FAIL  "+format+"\n", args...)
	}

	if baseline.Config.Clients != current.Config.Clients || baseline.Config.Seed != current.Config.Seed {
		fmt.Fprintf(&b, "note  configs differ: baseline %d clients seed %d, current %d clients seed %d\n",
			baseline.Config.Clients, baseline.Config.Seed, current.Config.Clients, current.Config.Seed)
	}

	if want := int(opts.minActive * float64(current.Config.Clients)); current.Totals.ClientsActive < want {
		fail("only %d of %d clients completed a request (want >= %d): the server is starving clients, so the latency quantiles are survivorship-biased",
			current.Totals.ClientsActive, current.Config.Clients, want)
	} else {
		fmt.Fprintf(&b, "ok    %d of %d clients active\n", current.Totals.ClientsActive, current.Config.Clients)
	}

	if rate := current.errorRate(); rate > opts.maxErrorRate {
		fail("error rate %.4f exceeds budget %.4f (%d transport errors, statuses %s)",
			rate, opts.maxErrorRate, current.Totals.Errors, statusSummary(current.Status))
	} else {
		fmt.Fprintf(&b, "ok    error rate %.4f (budget %.4f)\n", rate, opts.maxErrorRate)
	}

	oldP99, newP99 := baseline.Latency.P99, current.Latency.P99
	delta := 0.0
	if oldP99 > 0 {
		delta = float64(newP99-oldP99) / float64(oldP99)
	}
	switch {
	case newP99 > opts.floorUs && oldP99 > 0 && delta > opts.threshold:
		fail("p99 %dus -> %dus (%+.1f%% > %+.0f%% budget above the %dus floor)",
			oldP99, newP99, 100*delta, 100*opts.threshold, opts.floorUs)
	default:
		fmt.Fprintf(&b, "ok    p99 %dus -> %dus (%+.1f%%)\n", oldP99, newP99, 100*delta)
	}

	if opts.maxP99Us > 0 {
		if newP99 > opts.maxP99Us {
			fail("p99 %dus exceeds the absolute budget %dus", newP99, opts.maxP99Us)
		} else {
			fmt.Fprintf(&b, "ok    p99 %dus within absolute budget %dus\n", newP99, opts.maxP99Us)
		}
	}

	fmt.Fprintf(&b, "info  throughput %.0f -> %.0f req/s, p50 %dus -> %dus, p999 %dus -> %dus\n",
		baseline.Totals.ThroughputRPS, current.Totals.ThroughputRPS,
		baseline.Latency.P50, current.Latency.P50,
		baseline.Latency.P999, current.Latency.P999)

	if failures == 0 {
		fmt.Fprintf(&b, "load gate passed\n")
	} else {
		fmt.Fprintf(&b, "load gate FAILED: %d violation(s)\n", failures)
	}
	return b.String(), failures
}

func statusSummary(status map[string]int64) string {
	keys := make([]string, 0, len(status))
	for k := range status {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, status[k])
	}
	return strings.Join(parts, " ")
}
