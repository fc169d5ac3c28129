// Command actorvet runs the FA-BSP static-analysis suite over Go
// packages and reports violations of the SPMD/actor-model invariants
// that a run does not show (the runtime checks the others as it runs):
//
//	go run ./cmd/actorvet ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors. Findings can
// be suppressed with //actorvet:ignore directives (see README.md,
// "Static analysis"); -format selects text or sarif output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"actorprof/internal/analysis"
)

func main() {
	os.Exit(vetMain(os.Args[1:], os.Stdout, os.Stderr))
}

// vetMain is the testable entry point.
func vetMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actorvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or sarif")
	rules := fs.String("rules", "", "comma-separated rule IDs to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	verbose := fs.Bool("v", false, "include fix hints in text output")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: actorvet [flags] [package-dir|pattern ...]\n")
		fmt.Fprintf(stderr, "patterns follow the go tool: a directory, or dir/... for the subtree (default ./...)\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range analysis.Rules {
			fmt.Fprintf(stdout, "%s\n\t%s\n", r.Name, r.Doc)
		}
		return 0
	}
	selected := analysis.Rules
	if *rules != "" {
		selected = nil
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			named := func(r analysis.Rule) bool { return r.Name == name }
			i := slices.IndexFunc(analysis.Rules, named)
			if i < 0 {
				fmt.Fprintf(stderr, "actorvet: unknown rule %q (try -list)\n", name)
				return 2
			}
			if !slices.ContainsFunc(selected, named) { // a repeated ID runs once
				selected = append(selected, analysis.Rules[i])
			}
		}
	}

	out := analysis.Text
	switch {
	case *format == "sarif":
		out = analysis.SARIF
	case *format == "text" && *verbose:
		out = analysis.TextVerbose
	case *format != "text":
		fmt.Fprintf(stderr, "actorvet: unknown format %q (want text or sarif)\n", *format)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "actorvet: %v\n", err)
		return 2
	}
	diags := analysis.Run(prog, selected)
	if err := analysis.Report(stdout, diags, out); err != nil {
		fmt.Fprintf(stderr, "actorvet: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
