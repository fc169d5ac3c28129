package main

import (
	"fmt"
	"math"
	"sort"
)

// metricKind says which list of BENCHMARK.json a metric belongs to.
type metricKind int

const (
	// gated metrics are BENCHMARK.json's end_to_end list: every workload
	// reports every one of them, and each carries a regression bound.
	gated metricKind = iota
	// endToEnd metrics are user-visible numbers that only some workloads
	// have (a ratio against a twin run, a request percentile). The file
	// format has no place for a metric with holes, so BENCHMARK.json lists
	// them under per_layer; -compare still applies their bounds.
	endToEnd
	// layer metrics come from the layer pass.
	layer
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	kind   metricKind
}

// metricDefs is the one list of what the benchmark reports; BENCHMARK.json
// is checked against it by the package test. A workload that does not
// cross a layer reports 0 for that layer's metrics.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, gated},
	{"call_p50_ms", "ms", "lower", 0.25, gated},
	{"work_per_s", "1/s", "higher", 0.25, gated},
	{"peak_rss_mb", "MB", "lower", 0.25, gated},

	{"run_wall_s", "s", "lower", 0.10, endToEnd},
	{"msgs_per_s", "1/s", "higher", 0.10, endToEnd},
	{"pe_scaling_ratio", "x", "lower", 0.10, endToEnd},
	{"trace_overhead_ratio", "x", "lower", 0.10, endToEnd},
	{"trace_to_plot_s", "s", "lower", 0.10, endToEnd},
	{"trace_disk_mb", "MB", "lower", 0.01, endToEnd},
	{"req_per_s", "1/s", "higher", 0.10, endToEnd},
	{"req_p50_us", "us", "lower", 0.10, endToEnd},
	{"req_p99_us", "us", "lower", 0.10, endToEnd},

	{"shmem.self_ns_per_msg", "ns", "lower", 0, layer},
	{"shmem.rung_wall_s", "s", "lower", 0, layer},
	{"shmem.growth_ns_per_msg", "ns", "lower", 0, layer},
	{"shmem.barrier_ns", "ns", "lower", 0, layer},
	{"shmem.yield_ns", "ns", "lower", 0, layer},
	{"shmem.load_ns", "ns", "lower", 0, layer},
	{"shmem.putmem_nbi_calls", "count", "lower", 0, layer},
	{"shmem.quiet_calls", "count", "lower", 0, layer},
	{"shmem.copylocal_calls", "count", "lower", 0, layer},
	{"shmem.barrier_calls", "count", "lower", 0, layer},

	{"conveyor.self_ns_per_msg", "ns", "lower", 0, layer},
	{"conveyor.rung_wall_s", "s", "lower", 0, layer},
	{"conveyor.growth_ns_per_msg", "ns", "lower", 0, layer},
	{"conveyor.local_sends", "count", "lower", 0, layer},
	{"conveyor.nonblock_sends", "count", "lower", 0, layer},
	{"conveyor.nonblock_progress", "count", "lower", 0, layer},
	{"conveyor.items_per_buffer", "ratio", "higher", 0, layer},
	{"conveyor.advances_per_msg", "ratio", "lower", 0, layer},

	{"actor.self_ns_per_msg", "ns", "lower", 0, layer},
	{"actor.rung_wall_s", "s", "lower", 0, layer},
	{"actor.growth_ns_per_msg", "ns", "lower", 0, layer},
	{"actor.msgs_per_invocation", "ratio", "higher", 0, layer},

	{"apps.self_ns_per_msg", "ns", "lower", 0, layer},
	{"apps.rung_wall_s", "s", "lower", 0, layer},
	{"apps.growth_ns_per_msg", "ns", "lower", 0, layer},
	{"apps.logical_msgs", "count", "lower", 0, layer},

	{"trace.collector_self_ns_per_msg", "ns", "lower", 0, layer},
	{"trace.rung_wall_s", "s", "lower", 0, layer},
	{"trace.growth_ns_per_msg", "ns", "lower", 0, layer},
	{"trace.records", "count", "lower", 0, layer},
	{"trace.write_s", "s", "lower", 0, layer},
	{"trace.read_set_s", "s", "lower", 0, layer},
	{"trace.read_summary_s", "s", "lower", 0, layer},
	{"trace.build_index_s", "s", "lower", 0, layer},
	{"trace.window_query_us", "us", "lower", 0, layer},
	{"trace.write_mb_per_s", "MB/s", "higher", 0, layer},
	{"trace.read_mb_per_s", "MB/s", "higher", 0, layer},

	{"sim.capture_overhead_ratio", "x", "lower", 0, layer},
	{"sim.schedule_events", "count", "lower", 0, layer},
	{"sim.charge_ns", "ns", "lower", 0, layer},
	{"sim.makespan_cycles", "cycles", "lower", 0, layer},
	{"sim.makespan_drift", "ratio", "lower", 0, layer},
	{"sim.t_comm_share", "ratio", "lower", 0, layer},
	{"papi.tot_ins", "count", "lower", 0, layer},

	{"core.build_plots_ms", "ms", "lower", 0, layer},
	{"core.cold_run_s", "s", "lower", 0, layer},
	{"viz.render_svg_ms", "ms", "lower", 0, layer},
	{"viz.svg_bytes", "bytes", "lower", 0, layer},
	{"whatif.project_ms", "ms", "lower", 0, layer},
	{"whatif.replay_ms", "ms", "lower", 0, layer},
	{"whatif.compare_ms", "ms", "lower", 0, layer},

	{"serve.hit_p50_us", "us", "lower", 0, layer},
	{"serve.notmod_p50_us", "us", "lower", 0, layer},
	{"serve.miss_p50_us", "us", "lower", 0, layer},
	{"serve.miss_p99_us", "us", "lower", 0, layer},
	{"serve.runs_p50_us", "us", "lower", 0, layer},
	{"serve.events_p50_us", "us", "lower", 0, layer},
	{"serve.whatif_p50_us", "us", "lower", 0, layer},
	{"serve.req_p999_us", "us", "lower", 0, layer},
	{"serve.cache_hit_ratio", "ratio", "higher", 0, layer},
	{"serve.cache_misses", "count", "lower", 0, layer},
	{"serve.registry_scans", "count", "lower", 0, layer},
	{"serve.fingerprints", "count", "lower", 0, layer},
	{"serve.status_304_share", "ratio", "higher", 0, layer},
	{"serve.bytes_out", "bytes", "lower", 0, layer},

	{"graph.rmat_gen_s", "s", "lower", 0, layer},
	{"graph.serial_count_s", "s", "lower", 0, layer},

	{"harness.alloc_mb_per_run", "MB", "lower", 0, layer},
	{"harness.gc_cycles", "count", "lower", 0, layer},
	{"harness.gc_pause_ms", "ms", "lower", 0, layer},
	{"harness.gomaxprocs", "count", "higher", 0, layer},
	{"harness.layer_pass_overhead_ratio", "x", "lower", 0, layer},
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// samples collects the values measured for each metric of one workload,
// together with the operations attempted and failed.
type samples struct {
	values    map[string][]float64
	attempted int
	failed    int
	failures  []string // the first few failures, for the report
}

func newSamples() *samples { return &samples{values: map[string][]float64{}} }

// add records one sample of a defined metric.
func (s *samples) add(name string, v float64) {
	if _, ok := metricByName(name); !ok {
		panic("benchmark: undefined metric " + name)
	}
	s.values[name] = append(s.values[name], v)
}

// set replaces a metric's samples with a single value.
func (s *samples) set(name string, v float64) {
	delete(s.values, name)
	s.add(name, v)
}

// check counts one attempted operation and, when ok is false, one failure.
func (s *samples) check(ok bool, format string, args ...any) {
	s.attempted++
	if ok {
		return
	}
	s.failed++
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *samples) median(name string) float64 { return median(s.values[name]) }

// stats summarises every metric that has samples.
func (s *samples) stats() map[string]stat {
	out := make(map[string]stat, len(s.values))
	for name, v := range s.values {
		d, _ := metricByName(name)
		out[name] = summarize(d.unit, v)
	}
	return out
}

// sortedNames returns the metrics of one kind that have samples, in the
// order metricDefs lists them.
func sortedNames(st map[string]stat, kinds ...metricKind) []string {
	var names []string
	for _, d := range metricDefs {
		if _, ok := st[d.name]; !ok {
			continue
		}
		for _, k := range kinds {
			if d.kind == k {
				names = append(names, d.name)
			}
		}
	}
	return names
}

// finite reports whether every summarised value is a finite number.
func finite(st map[string]stat) error {
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m := st[name].Median; math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("metric %s is %v", name, m)
		}
	}
	return nil
}
