package core

import (
	"errors"
	"fmt"
	"strings"

	"actorprof/internal/papi"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
)

// Feature is something a trace directory may or may not hold; every
// standard plot names the features it cannot be drawn without.
type Feature int

const (
	FeatureLogical   Feature = iota // PEi_send.csv records
	FeaturePhysical                 // physical.txt records
	FeatureOverall                  // overall.txt breakdown
	FeaturePAPI                     // PEi_PAPI.csv counters
	FeatureMultiNode                // more PEs than fit on one node
)

// features holds each feature's name in actorprofd's run listing (none
// for one the listing does not report) and the words a plot that needs
// it is refused with.
var features = [...]struct{ name, absent string }{
	FeatureLogical:   {"logical", "run has no logical trace (PEi_send.csv)"},
	FeaturePhysical:  {"physical", "run has no physical trace (physical.txt)"},
	FeatureOverall:   {"overall", "run has no overall breakdown (overall.txt)"},
	FeaturePAPI:      {"papi", "run has no PAPI events (PEi_PAPI.csv)"},
	FeatureMultiNode: {"", "run fits on one node; no node-level hotspots to plot"},
}

// Absent says why a plot that needs the feature cannot be drawn.
func (f Feature) Absent() string { return features[f].absent }

// Name is the feature's name in actorprofd's run listing, "" for one the
// listing does not report.
func (f Feature) Name() string { return features[f].name }

// FeatureNames lists the named features s has, in Feature order.
func FeatureNames(s trace.Source) []string {
	var names []string
	for f, info := range features {
		if info.name != "" && Feature(f).In(s) {
			names = append(names, info.name)
		}
	}
	return names
}

// In reports whether s has the feature.
func (f Feature) In(s trace.Source) bool {
	cfg := s.TraceConfig()
	switch f {
	case FeatureLogical:
		return cfg.Logical
	case FeaturePhysical:
		return cfg.Physical
	case FeatureOverall:
		return cfg.Overall
	case FeaturePAPI:
		return len(cfg.PAPIEvents) > 0
	case FeatureMultiNode:
		npes, perNode := s.Shape()
		return npes > perNode
	}
	return false
}

// PlotSpec is one entry of the standard plot catalog: what the actorprof
// CLI and the actorprofd daemon both need to know about a plot in order
// to offer, title and build it.
type PlotSpec struct {
	// Kind names the plot in actorprofd URLs ("logical-heatmap").
	Kind string
	// Flag is the visualizer flag that selects the plot (-l, -p, -violin,
	// -lp, -s), without the dash.
	Flag string
	// Title is the plot's title; for a UsesEvent plot it is a format
	// taking the PAPI event.
	Title string
	// Needs lists the features the trace must have, most basic first.
	Needs []Feature
	// UsesEvent marks the one plot that draws a caller-chosen PAPI event;
	// every other plot ignores the event passed to Title and Build.
	UsesEvent bool

	build func(s trace.Source, ev papi.Event, title string) viz.Plot
}

// Plots is the catalog, in the order the CLI renders it.
var Plots = []PlotSpec{
	{Kind: "logical-heatmap", Flag: "l", Title: "Logical Trace (pre-aggregation sends)",
		Needs: []Feature{FeatureLogical}, build: titled(LogicalHeatmap)},
	{Kind: "physical-heatmap", Flag: "p", Title: "Physical Trace (post-aggregation buffers)",
		Needs: []Feature{FeaturePhysical}, build: titled(PhysicalHeatmap)},
	{Kind: "logical-violin", Flag: "violin", Title: "Logical sends/recvs per PE (quartiles)",
		Needs: []Feature{FeatureLogical}, build: titled(LogicalViolin)},
	{Kind: "physical-violin", Flag: "violin", Title: "Physical buffers per PE (quartiles)",
		Needs: []Feature{FeaturePhysical}, build: titled(PhysicalViolin)},
	{Kind: "papi-bar", Flag: "lp", Title: "%s per PE (user regions)", UsesEvent: true,
		Needs: []Feature{FeaturePAPI},
		build: func(s trace.Source, ev papi.Event, title string) viz.Plot { return PAPIBar(s, ev, title) }},
	{Kind: "papi-grouped", Flag: "lp", Title: "All PAPI counters per PE (one run)",
		Needs: []Feature{FeaturePAPI}, build: titled(PAPIGroupedBar)},
	{Kind: "node-heatmap", Flag: "p", Title: "Node-level network hotspots",
		Needs: []Feature{FeaturePhysical, FeatureMultiNode}, build: titled(NodeHeatmap)},
	{Kind: "overall-absolute", Flag: "s", Title: "Overall breakdown (absolute cycles)",
		Needs: []Feature{FeatureOverall},
		build: func(s trace.Source, _ papi.Event, title string) viz.Plot { return OverallStacked(s, false, title) }},
	{Kind: "overall-relative", Flag: "s", Title: "Overall breakdown (relative)",
		Needs: []Feature{FeatureOverall},
		build: func(s trace.Source, _ papi.Event, title string) viz.Plot { return OverallStacked(s, true, title) }},
}

// titled adapts a (source, title) plot constructor to the catalog.
func titled[P viz.Plot](f func(trace.Source, string) P) func(trace.Source, papi.Event, string) viz.Plot {
	return func(s trace.Source, _ papi.Event, title string) viz.Plot { return f(s, title) }
}

// Missing returns the first feature the plot needs and s lacks.
func (p PlotSpec) Missing(s trace.Source) (Feature, bool) {
	for _, f := range p.Needs {
		if !f.In(s) {
			return f, true
		}
	}
	return 0, false
}

// TitleFor returns the plot's title when drawn for ev.
func (p PlotSpec) TitleFor(ev papi.Event) string {
	if p.UsesEvent {
		return fmt.Sprintf(p.Title, ev)
	}
	return p.Title
}

// ErrNotRecorded starts the error Event returns for a PAPI event the
// run did not record.
var ErrNotRecorded = errors.New("run did not record")

// Event resolves the PAPI event the plot draws for s from a requested
// name: "" is the first event s recorded, and a name papi does not know
// or s did not record is an error. A plot that draws no event gets 0.
func (p PlotSpec) Event(s trace.Source, name string) (papi.Event, error) {
	if !p.UsesEvent {
		return 0, nil
	}
	recorded := s.TraceConfig().PAPIEvents
	if name == "" && len(recorded) > 0 {
		return recorded[0], nil
	}
	ev, err := papi.EventByName(name)
	if err != nil {
		return 0, err
	}
	names := make([]string, len(recorded))
	for i, have := range recorded {
		if have == ev {
			return ev, nil
		}
		names[i] = have.String()
	}
	return 0, fmt.Errorf("%w %s (recorded: %s)", ErrNotRecorded, ev, strings.Join(names, ", "))
}

// PlotOf returns the catalog entry of kind.
func PlotOf(kind string) (PlotSpec, bool) {
	for _, p := range Plots {
		if p.Kind == kind {
			return p, true
		}
	}
	return PlotSpec{}, false
}

// SVGFile is the file name the CLI's -svg writes the plot under.
func (p PlotSpec) SVGFile() string { return strings.ReplaceAll(p.Kind, "-", "_") + ".svg" }

// Build constructs the plot from s under its catalog title.
func (p PlotSpec) Build(s trace.Source, ev papi.Event) viz.Plot {
	return p.build(s, ev, p.TitleFor(ev))
}
