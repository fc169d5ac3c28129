package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"actorprof/internal/core"
	"actorprof/internal/viz"
	"actorprof/internal/whatif"
)

// baselineFor returns a run's recorded what-if schedule with its
// baseline projection, loaded once per directory fingerprint (the
// fingerprint covers the schedule's files, so a rewritten run invalidates the
// cache automatically) as a bounded, counted parse. A failed load is
// remembered for the fingerprint too. Runs without a schedule 404.
func (r *registry) baselineFor(d deadline, run resolvedRun) (*whatif.Baseline, error) {
	base, err := load(r, d, run, &run.e.sched, true, readBaseline)
	if err == nil && base == nil {
		return nil, noData("run %s has no recorded schedule; capture one with core.RunCaptured", run.id)
	}
	return base, err
}

func readBaseline(dir, _ string) (*whatif.Baseline, int, error) {
	sched, err := whatif.ReadScheduleFile(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	base, err := whatif.NewBaseline(sched)
	return base, 0, err
}

// whatifQuery is the parsed, normalized perturbation request.
type whatifQuery struct {
	whatif.Question
	plot   string // "report", "compare", "bottleneck"
	format string // "json", "svg"
}

func scaleParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil // unset = unchanged
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err == nil {
		err = whatif.CheckFactor(v)
	}
	if err != nil {
		return 0, statusError{code: 400, msg: fmt.Sprintf("%s must be a positive finite number, got %q", name, raw)}
	}
	return v, nil
}

func whatifParams(r *http.Request) (whatifQuery, error) {
	var q whatifQuery
	var err error
	for name, dst := range map[string]*float64{
		"scale_network": &q.Scales.Network,
		"scale_local":   &q.Scales.Local,
		"scale_quiet":   &q.Scales.Quiet,
		"scale_instr":   &q.Scales.Instr,
		"scale_ingest":  &q.Scales.Ingest,
		"speedup":       &q.Speedup,
	} {
		if *dst, err = scaleParam(r, name); err != nil {
			return q, err
		}
		if *dst == 1 && name != "speedup" {
			*dst = 0 // prices as unset does (whatif.ScaledCost): one cache entry for both
		}
	}
	if raw := r.URL.Query().Get("actor"); raw != "" {
		q.Actor, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || q.Actor < 0 {
			return q, statusError{code: 400, msg: fmt.Sprintf("actor must be a non-negative actor ID, got %q", raw)}
		}
	}
	if q.Speedup > 0 && r.URL.Query().Get("actor") == "" {
		return q, statusError{code: 400, msg: "speedup requires actor=<id> to name the handler to speed up"}
	}
	if q.Speedup == 0 {
		q.Actor = 0 // unused without a speedup: not part of the cache key
	}
	q.plot = r.URL.Query().Get("plot")
	switch q.plot {
	case "":
		q.plot = "report"
	case "report", "compare", "bottleneck":
	default:
		return q, statusError{code: 400, msg: fmt.Sprintf("plot must be report, compare, or bottleneck, got %q", q.plot)}
	}
	q.format = r.URL.Query().Get("format")
	switch q.format {
	case "":
		q.format = "json"
	case "json":
	case "svg":
		if q.plot == "report" {
			return q, statusError{code: 400, msg: "format=svg requires plot=compare or plot=bottleneck"}
		}
	default:
		return q, statusError{code: 400, msg: fmt.Sprintf("format must be json or svg, got %q", q.format)}
	}
	return q, nil
}

func (q whatifQuery) norm() string {
	return fmt.Sprintf("%g\x01%g\x01%g\x01%g\x01%g\x01%d\x01%g\x01%s\x01%s",
		q.Scales.Network, q.Scales.Local, q.Scales.Quiet, q.Scales.Instr, q.Scales.Ingest,
		q.Actor, q.Speedup, q.plot, q.format)
}

// handleWhatIf serves /runs/{run}/whatif: the causal projection of a
// cost-model/handler perturbation over the run's recorded schedule,
// differentially validated against a deterministic replay on every
// render (then cached per fingerprint+query, ETagged and gzipped like
// every other artifact). format=json returns the full whatif.Report;
// plot=compare|bottleneck with format=svg return the rendered figures.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("run")
	q, err := whatifParams(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	d := s.deadline(r)
	run, err := s.reg.resolve(d, runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.serveArtifact(w, r, d, run, "whatif", []string{q.norm()}, func(buf *bytes.Buffer) (string, error) {
		base, err := s.reg.baselineFor(deadline{}, run)
		if err != nil {
			return "", err
		}
		if err := base.Check(q.Question, func(part string) string {
			if part == "speedup" || part == "actor" {
				return part
			}
			return "scale_" + part
		}); err != nil {
			return "", statusError{code: 400, msg: err.Error()}
		}
		rep, err := base.Compare(base.Perturbation(q.Question))
		if err != nil {
			return "", err
		}
		if q.format == "json" && q.plot == "report" {
			return "application/json", writeJSON(buf, rep)
		}
		var plot viz.Plot
		if q.plot == "compare" {
			plot = core.WhatIfPlot(rep, "what-if: "+q.Phrase())
		} else {
			plot = core.BottleneckPlot(rep.Projected, 12, "bottleneck ranking (projected)")
		}
		if q.format == "json" {
			return "application/json", writeJSON(buf, plot)
		}
		return "image/svg+xml", viz.RenderSVGTo(plot, buf)
	})
}
