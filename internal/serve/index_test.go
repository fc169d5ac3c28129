package serve

import (
	"html"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// TestIndexLinksEscapeRunIDs: a run directory's name reaches every link
// of the HTML index as one escaped path segment inside an escaped
// attribute, so a name holding a quote, a '?' or a '#' still links to
// its own artifacts, and every link answers 200.
func TestIndexLinksEscapeRunIDs(t *testing.T) {
	root := t.TempDir()
	names := []string{`a"b`, "x?y#z"}
	for _, id := range names {
		writeRun(t, root, id)
	}
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	res, body := get(t, h, "/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/: %d", res.StatusCode)
	}
	hrefs := regexp.MustCompile(`href="([^"]*)"`).FindAllStringSubmatch(body, -1)
	perRun := map[string]int{}
	for _, m := range hrefs {
		link := html.UnescapeString(m[1])
		for _, id := range names {
			if strings.HasPrefix(link, "/runs/"+strings.NewReplacer(`"`, "%22", "?", "%3F", "#", "%23").Replace(id)+"/") {
				perRun[id]++
			}
		}
		if res, body := get(t, h, link); res.StatusCode != http.StatusOK {
			t.Errorf("%s (from %q): %d %s", link, m[1], res.StatusCode, body)
		}
	}
	for _, id := range names {
		// Every plot pair, the Perfetto export and the window query.
		if perRun[id] < len(artifactNames()) {
			t.Errorf("run %q has %d links in the index:\n%s", id, perRun[id], body)
		}
	}
	if len(hrefs) != perRun[names[0]]+perRun[names[1]] {
		t.Errorf("%d links, %d of them to the two runs:\n%s", len(hrefs), perRun[names[0]]+perRun[names[1]], body)
	}
}
