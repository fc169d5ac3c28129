package serve

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePlotJSON = flag.Bool("update", false, "rewrite testdata/plot_json.golden")

// TestPlotJSONGolden pins the body of every /plots/<kind>.json over the
// writeRun fixture, plus papi-bar for a non-default event, byte for
// byte: the JSON is each viz plot's own form, and this file holds what
// the daemon answered before it was. After an intentional change to a
// JSON form, regenerate with
//
//	go test ./internal/serve -run TestPlotJSONGolden -update
func TestPlotJSONGolden(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	paths := []string{
		"logical-heatmap.json", "physical-heatmap.json", "node-heatmap.json",
		"logical-violin.json", "physical-violin.json",
		"papi-bar.json", "papi-bar.json?event=PAPI_LST_INS", "papi-grouped.json",
		"overall-absolute.json", "overall-relative.json",
	}
	var b strings.Builder
	for _, p := range paths {
		path := "/runs/run1/plots/" + p
		res, body := get(t, h, path)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, res.StatusCode, body)
		}
		b.WriteString("== " + path + "\n" + body + "\n")
	}
	golden := filepath.Join("testdata", "plot_json.golden")
	if *updatePlotJSON {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("%s: first difference at line %d:\ngot:  %.300s", golden, i+1, gotLines[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", golden, len(gotLines), len(wantLines))
}
