package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"

	"actorprof/internal/core"
	"actorprof/internal/sim"
	"actorprof/internal/whatif"
)

// scheduleFor returns a run's recorded what-if schedule, loaded once
// per directory fingerprint (the fingerprint covers schedule.json, so
// a rewritten run invalidates the cache automatically). Runs without a
// schedule 404.
func (r *registry) scheduleFor(id string) (*sim.Schedule, error) {
	run, err := r.lock(id)
	if err != nil {
		return nil, err
	}
	defer run.unlock()
	e := run.e
	if e.schedFP != run.fp {
		sched, err := whatif.ReadScheduleFile(run.dir)
		switch {
		case errors.Is(err, os.ErrNotExist):
			sched = nil
		case err != nil:
			return nil, err
		}
		e.sched, e.schedFP = sched, run.fp
	}
	if e.sched == nil {
		return nil, noData("run %s has no recorded schedule (%s); capture one with core.RunCaptured", id, whatif.ScheduleFileName)
	}
	return e.sched, nil
}

// whatifQuery is the parsed, normalized perturbation request.
type whatifQuery struct {
	scales  whatif.CostScales
	actor   int64
	speedup float64
	plot    string // "report", "compare", "bottleneck"
	format  string // "json", "svg"
}

func scaleParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil // unset = unchanged
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, statusError{code: 400, msg: fmt.Sprintf("%s must be a positive finite number, got %q", name, raw)}
	}
	return v, nil
}

func whatifParams(r *http.Request) (whatifQuery, error) {
	var q whatifQuery
	var err error
	for name, dst := range map[string]*float64{
		"scale_network": &q.scales.Network,
		"scale_local":   &q.scales.Local,
		"scale_quiet":   &q.scales.Quiet,
		"scale_instr":   &q.scales.Instr,
		"scale_ingest":  &q.scales.Ingest,
		"speedup":       &q.speedup,
	} {
		if *dst, err = scaleParam(r, name); err != nil {
			return q, err
		}
	}
	if raw := r.URL.Query().Get("actor"); raw != "" {
		q.actor, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || q.actor < 0 {
			return q, statusError{code: 400, msg: fmt.Sprintf("actor must be a non-negative actor ID, got %q", raw)}
		}
	}
	if q.speedup > 0 && r.URL.Query().Get("actor") == "" {
		return q, statusError{code: 400, msg: "speedup requires actor=<id> to name the handler to speed up"}
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
		q.scales.Network, q.scales.Local, q.scales.Quiet, q.scales.Instr, q.scales.Ingest,
		q.actor, q.speedup, q.plot, q.format)
}

func (q whatifQuery) title() string {
	var parts []string
	add := func(name string, f float64) {
		if f > 0 && f != 1 {
			parts = append(parts, fmt.Sprintf("%s x%g", name, f))
		}
	}
	add("network", q.scales.Network)
	add("local", q.scales.Local)
	add("quiet", q.scales.Quiet)
	add("instr", q.scales.Instr)
	add("ingest", q.scales.Ingest)
	if q.speedup > 0 {
		ord, mb := sim.ActorIDParts(q.actor)
		parts = append(parts, fmt.Sprintf("s%d/m%d handler %gx faster", ord, mb, q.speedup))
	}
	if len(parts) == 0 {
		return "what-if: baseline (no perturbation)"
	}
	return "what-if: " + strings.Join(parts, ", ")
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
	fp, err := s.reg.fingerprintFor(runID)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.serveArtifact(w, r, runID, fp, "whatif", []string{q.norm()}, func() ([]byte, string, error) {
		sched, err := s.reg.scheduleFor(runID)
		if err != nil {
			return nil, "", err
		}
		pert := whatif.Perturbation{Cost: whatif.ScaledCost(sched.Cost, q.scales)}
		if q.speedup > 0 {
			pert.HandlerSpeedup = map[int64]float64{q.actor: q.speedup}
		}
		if err := pert.Validate(); err != nil {
			return nil, "", statusError{code: 400, msg: err.Error()}
		}
		rep, err := core.WhatIf(sched, pert)
		if err != nil {
			return nil, "", err
		}
		var data []byte
		contentType := "application/json"
		switch {
		case q.format == "json" && q.plot == "report":
			data, err = json.Marshal(rep)
		default:
			var plot interface {
				RenderSVG() (string, error)
			}
			if q.plot == "compare" {
				plot = core.WhatIfPlot(rep, q.title())
			} else {
				plot = core.BottleneckPlot(rep.Projected, 12, "bottleneck ranking (projected)")
			}
			if q.format == "json" {
				data, err = json.Marshal(plot)
			} else {
				var svg string
				svg, err = plot.RenderSVG()
				data, contentType = []byte(svg), "image/svg+xml"
			}
		}
		return data, contentType, err
	})
}
