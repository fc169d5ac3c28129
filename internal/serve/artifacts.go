package serve

import (
	"fmt"
	"sort"
	"strings"

	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/stats"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
)

// statusError carries an HTTP status with an error message.
type statusError struct {
	code int
	msg  string
}

func (e statusError) Error() string { return e.msg }

func noData(format string, args ...any) error {
	return statusError{code: 404, msg: fmt.Sprintf(format, args...)}
}

// artifact is one servable plot kind: its entry in core's plot catalog
// (availability, title, SVG plot) plus the JSON payload builder. Only
// kinds that declare UsesEvent receive the request's ?event= value (and
// key their cache entries on it) - for every other kind the parameter is
// ignored entirely, so it cannot mint distinct cache entries for
// identical bytes.
type artifact struct {
	core.PlotSpec
	payload func(s trace.Source, title string, ev papi.Event) any
}

// missing words the 404 for each feature a run can lack.
var missing = map[core.Feature]string{
	core.FeatureLogical:   "run has no logical trace (PEi_send.csv)",
	core.FeaturePhysical:  "run has no physical trace (physical.txt)",
	core.FeatureOverall:   "run has no overall breakdown (overall.txt)",
	core.FeaturePAPI:      "run has no PAPI events (PEi_PAPI.csv)",
	core.FeatureMultiNode: "run fits on one node; no node-level hotspots to plot",
}

// check reports, as a 404, the first feature the kind needs and s lacks.
func (a artifact) check(s trace.Source) error {
	if f, lacks := a.Missing(s); lacks {
		return noData("%s", missing[f])
	}
	return nil
}

// event resolves param for the kinds that use it.
func (a artifact) event(s trace.Source, param string) (papi.Event, error) {
	if !a.UsesEvent {
		return 0, nil
	}
	return papiEvent(s, param)
}

func (a artifact) plot(s trace.Source, param string) (viz.Plot, error) {
	ev, err := a.event(s, param)
	if err != nil {
		return nil, err
	}
	return a.Build(s, ev), nil
}

func (a artifact) json(s trace.Source, param string) (any, error) {
	ev, err := a.event(s, param)
	if err != nil {
		return nil, err
	}
	return a.payload(s, a.TitleFor(ev), ev), nil
}

// payloads holds the JSON side of every catalog kind.
var payloads = map[string]func(s trace.Source, title string, ev papi.Event) any{
	"logical-heatmap": func(s trace.Source, title string, _ papi.Event) any {
		return heatmapJSON(title, "src PE", "dst PE", s.LogicalMatrix())
	},
	"physical-heatmap": func(s trace.Source, title string, _ papi.Event) any {
		return heatmapJSON(title, "src PE", "dst PE", s.PhysicalMatrix())
	},
	"node-heatmap": func(s trace.Source, title string, _ papi.Event) any {
		_, perNode := s.Shape()
		return heatmapJSON(title, "src node", "dst node", s.PhysicalMatrix().AggregateNodes(perNode))
	},
	"logical-violin": func(s trace.Source, title string, _ papi.Event) any {
		return violinJSON(core.LogicalViolin(s, title))
	},
	"physical-violin": func(s trace.Source, title string, _ papi.Event) any {
		return violinJSON(core.PhysicalViolin(s, title))
	},
	"papi-bar": func(s trace.Source, title string, ev papi.Event) any {
		return barPayload{
			Title:  title,
			YLabel: ev.String(),
			Labels: peLabels(numPEs(s)),
			Values: s.PAPITotalsPerPE(ev),
		}
	},
	"papi-grouped": func(s trace.Source, title string, _ papi.Event) any {
		p := stackedPayload{
			Title:  title,
			YLabel: "counter totals",
			Labels: peLabels(numPEs(s)),
		}
		for _, ev := range s.TraceConfig().PAPIEvents {
			p.Series = append(p.Series, seriesPayload{Name: ev.String(), Values: s.PAPITotalsPerPE(ev)})
		}
		return p
	},
	"overall-absolute": func(s trace.Source, title string, _ papi.Event) any {
		return stackedJSON(core.OverallStacked(s, false, title))
	},
	"overall-relative": func(s trace.Source, title string, _ papi.Event) any {
		return stackedJSON(core.OverallStacked(s, true, title))
	},
}

// artifacts is the daemon's plot catalog, keyed by kind; the URL plot
// name is "<kind>.svg" or "<kind>.json".
var artifacts = func() map[string]artifact {
	out := make(map[string]artifact, len(core.Plots))
	for _, p := range core.Plots {
		payload, ok := payloads[p.Kind]
		if !ok {
			panic("serve: plot kind " + p.Kind + " has no JSON payload builder")
		}
		out[p.Kind] = artifact{PlotSpec: p, payload: payload}
	}
	return out
}()

// artifactNames lists the catalog, for error messages and the index page.
func artifactNames() []string {
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// papiEvent resolves the ?event= parameter (default: the run's first
// configured event).
func papiEvent(s trace.Source, param string) (papi.Event, error) {
	events := s.TraceConfig().PAPIEvents
	if param == "" {
		return events[0], nil
	}
	ev, err := papi.EventByName(param)
	if err != nil {
		return 0, statusError{code: 400, msg: err.Error()}
	}
	for _, have := range events {
		if have == ev {
			return ev, nil
		}
	}
	names := make([]string, len(events))
	for i, have := range events {
		names[i] = have.String()
	}
	return 0, statusError{code: 404, msg: fmt.Sprintf("run did not record %s (recorded: %s)",
		ev, strings.Join(names, ", "))}
}

// JSON payload shapes. They mirror what the SVG plots draw, so a caller
// scripting against the daemon sees the same numbers the figures show.

type heatmapPayload struct {
	Title      string    `json:"title"`
	RowLabel   string    `json:"row_label"`
	ColLabel   string    `json:"col_label"`
	Cells      [][]int64 `json:"cells"`
	SendTotals []int64   `json:"send_totals"`
	RecvTotals []int64   `json:"recv_totals"`
}

func heatmapJSON(title, rowLabel, colLabel string, m trace.Matrix) heatmapPayload {
	return heatmapPayload{
		Title:      title,
		RowLabel:   rowLabel,
		ColLabel:   colLabel,
		Cells:      m,
		SendTotals: m.SendTotals(),
		RecvTotals: m.RecvTotals(),
	}
}

type violinGroupPayload struct {
	Label     string          `json:"label"`
	Quartiles stats.Quartiles `json:"quartiles"`
	Values    []float64       `json:"values"`
}

type violinPayload struct {
	Title  string               `json:"title"`
	YLabel string               `json:"y_label"`
	Groups []violinGroupPayload `json:"groups"`
}

func violinJSON(v *viz.Violin) violinPayload {
	p := violinPayload{Title: v.Title, YLabel: v.YLabel}
	for _, g := range v.Groups {
		p.Groups = append(p.Groups, violinGroupPayload{
			Label:     g.Label,
			Quartiles: stats.Summarize(g.Values),
			Values:    g.Values,
		})
	}
	return p
}

type barPayload struct {
	Title  string   `json:"title"`
	YLabel string   `json:"y_label"`
	Labels []string `json:"labels"`
	Values []int64  `json:"values"`
}

type seriesPayload struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

type stackedPayload struct {
	Title    string          `json:"title"`
	YLabel   string          `json:"y_label"`
	Labels   []string        `json:"labels"`
	Relative bool            `json:"relative"`
	Series   []seriesPayload `json:"series"`
}

func stackedJSON(sb *viz.StackedBar) stackedPayload {
	p := stackedPayload{
		Title:    sb.Title,
		YLabel:   sb.YLabel,
		Labels:   sb.Labels,
		Relative: sb.Relative,
	}
	for _, ser := range sb.Series {
		p.Series = append(p.Series, seriesPayload{Name: ser.Name, Values: ser.Values})
	}
	return p
}

func numPEs(s trace.Source) int {
	n, _ := s.Shape()
	return n
}

func peLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprint(i)
	}
	return labels
}
