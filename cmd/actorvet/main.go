// Command actorvet runs the static-analysis suite over Go packages and
// reports what a run does not show: hand-rolled symmetric-heap offsets
// (rawoffset) and malformed or stale //actorvet:ignore directives. The
// runtime checks the FA-BSP contract itself as it runs (DESIGN.md §5):
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
	diags := analysis.Run(prog)
	if err := analysis.Report(stdout, diags, out); err != nil {
		fmt.Fprintf(stderr, "actorvet: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
