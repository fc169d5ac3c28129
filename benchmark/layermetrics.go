package main

import "sort"

// ladderRungs are the stacks of the layer ladder from the bottom up, with
// the metric that holds each one's self time.
var ladderRungs = []struct{ rung, self string }{
	{"shmem", "shmem.self_ns_per_msg"},
	{"conveyor", "conveyor.self_ns_per_msg"},
	{"actor", "actor.self_ns_per_msg"},
	{"apps", "apps.self_ns_per_msg"},
	{"trace", "trace.collector_self_ns_per_msg"},
}

// selfTimes turns the rung walls recorded under one span name into
// nanoseconds per message of each layer's own: a rung's median wall minus
// the median wall of the rung below it, never below zero.
func selfTimes(rec *recorder, spanName string, msgs float64) (walls, self []float64) {
	below := 0.0
	for _, r := range ladderRungs {
		w := median(rec.durations(spanName, r.rung))
		walls = append(walls, w)
		self = append(self, max(w-below, 0)*1e9/msgs)
		below = w
	}
	return walls, self
}

// layerMetrics computes the per-layer metrics from recorded spans and
// counts, and adds them to the workload's samples.
func layerMetrics(rec *recorder, s *samples) {
	for name, v := range rec.counts {
		if _, ok := metricByName(name); ok {
			s.set(name, v)
		}
	}
	// One sample per span, scaled from seconds to the metric's unit.
	for _, m := range []struct {
		span, metric string
		scale        float64
	}{
		{"core.build_plots", "core.build_plots_ms", 1e3}, {"viz.render_svg", "viz.render_svg_ms", 1e3},
		{"whatif.project", "whatif.project_ms", 1e3}, {"whatif.replay", "whatif.replay_ms", 1e3},
		{"whatif.compare", "whatif.compare_ms", 1e3},
		{"trace.write", "trace.write_s", 1}, {"trace.read_set", "trace.read_set_s", 1},
		{"trace.read_summary", "trace.read_summary_s", 1}, {"trace.build_index", "trace.build_index_s", 1},
		{"trace.window_query", "trace.window_query_us", 1e6},
	} {
		for _, d := range rec.durations(m.span, "") {
			s.add(m.metric, d*m.scale)
		}
	}
	if mb := rec.counts["trace.disk_bytes"] / 1e6; mb > 0 {
		if w := s.median("trace.write_s"); w > 0 {
			s.set("trace.write_mb_per_s", mb/w)
		}
		if r := s.median("trace.read_set_s"); r > 0 {
			s.set("trace.read_mb_per_s", mb/r)
		}
	}

	if msgs := rec.counts["msgs"]; msgs > 0 {
		walls, self := selfTimes(rec, "rung", msgs)
		for i, r := range ladderRungs {
			for _, d := range rec.durations("rung", r.rung) {
				s.add(r.rung+".rung_wall_s", d)
			}
			s.set(r.self, self[i])
		}
		if len(rec.durations("twin_rung", "trace")) > 0 {
			_, twin := selfTimes(rec, "twin_rung", msgs)
			for i, r := range ladderRungs {
				s.set(r.rung+".growth_ns_per_msg", self[i]-twin[i])
			}
		}
		s.set("conveyor.advances_per_msg", rec.counts["conveyor.advances"]/msgs)
		if inv := rec.counts["actor.invocations"]; inv > 0 {
			s.set("actor.msgs_per_invocation", rec.counts["actor.msgs"]/inv)
		}
		if plain := median(rec.durations("rung", "trace_plain")); plain > 0 {
			s.set("sim.capture_overhead_ratio", median(rec.durations("rung", "sim"))/plain)
		}
		if e2e := s.median("run_wall_s"); e2e > 0 {
			s.set("harness.layer_pass_overhead_ratio", walls[len(walls)-1]/e2e)
		}
	}

	classes := map[string]string{
		"hit": "serve.hit_p50_us", "notmod": "serve.notmod_p50_us", "miss": "serve.miss_p50_us",
		"runs": "serve.runs_p50_us", "events": "serve.events_p50_us", "whatif": "serve.whatif_p50_us",
	}
	for class, metric := range classes {
		lat := rec.durations("serve.request", class)
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		s.set(metric, percentile(lat, 0.50)*1e6)
		if class == "miss" {
			s.set("serve.miss_p99_us", percentile(lat, 0.99)*1e6)
		}
	}
}
