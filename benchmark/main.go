// Command benchmark is the repository's benchmark: the host cost of a
// profiled run, the latency from a finished run to its plots, and the
// latency of actorprofd, each with a breakdown by module measured from
// outside the modules. BENCHMARK.json at the repository root names its
// workloads and metrics; README.md in this directory defines them.
//
//	go run ./benchmark                              all workloads, both passes
//	go run ./benchmark -workload tc_p16_full        one workload
//	go run ./benchmark -workload serve_zipf -trace 0  end-to-end pass only
//	go run ./benchmark -layers                      same as -trace 1
//	go run ./benchmark -compare a.json b.json       gate b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"actorprof/internal/apps"
	"actorprof/internal/graph"
	"actorprof/internal/sim"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

var workloadNames = []string{"tc_p256_agg", "tc_p16_full", "isort_p64_batch", "serve_zipf"}

// sizes fixes every input dimension of a size class. The workloads
// never read the clock or the machine to pick a size.
type sizes struct {
	name string

	scale, edgeFactor, perNode int
	bigPEs, twinPEs, fullPEs   int

	isortPEs, isortKeys int
	isortWidth          int64

	serveScale     int
	servePEs       []int
	clients        int
	cacheBytes     int64
	reqPerSecond   int // timed requests per second of -seconds
	warmupRequests int

	minReps, maxReps          int
	ladderReps, bigLadderReps int
	setupReps, serveSetupReps int
	microCalls, windowQueries int
}

func sizeClass(name string) (sizes, error) {
	switch name {
	case "full":
		return sizes{
			name:  "full",
			scale: 12, edgeFactor: 16, perNode: 16, bigPEs: 256, twinPEs: 16, fullPEs: 16,
			isortPEs: 64, isortKeys: 100000, isortWidth: 65536,
			serveScale: 10, servePEs: []int{16, 32}, clients: 2, cacheBytes: 1 << 20,
			reqPerSecond: 4000, warmupRequests: 10000,
			minReps: 3, maxReps: 15, ladderReps: 3, bigLadderReps: 1, setupReps: 5, serveSetupReps: 3,
			microCalls: 2000, windowQueries: 64,
		}, nil
	case "smoke":
		// Small enough for `go test ./...`: two simulated nodes of eight
		// PEs still route through the mesh, and the cache is still
		// smaller than the rendered working set.
		return sizes{
			name:  "smoke",
			scale: 8, edgeFactor: 16, perNode: 8, bigPEs: 16, twinPEs: 8, fullPEs: 8,
			isortPEs: 16, isortKeys: 2000, isortWidth: 4096,
			serveScale: 6, servePEs: []int{8, 16}, clients: 2, cacheBytes: 256 << 10,
			reqPerSecond: 0, warmupRequests: 200,
			minReps: 3, maxReps: 3, ladderReps: 3, bigLadderReps: 3, setupReps: 3, serveSetupReps: 1,
			microCalls: 200, windowQueries: 8,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown size %q (want full or smoke)", name)
}

// machine is the simulated machine of n PEs at the size class's node width.
func (sz sizes) machine(n int) sim.Machine { return sim.Machine{NumPEs: n, PEsPerNode: sz.perNode} }

// requests is the length of the timed request sequence.
func (sz sizes) requests(seconds float64) int {
	if sz.reqPerSecond == 0 {
		return 2000
	}
	return max(int(float64(sz.reqPerSecond)*seconds), 2000)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	// layers adds the layer pass; it needs the end-to-end pass's
	// numbers, so it always runs after one.
	layers bool
	size   sizes
	out    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all, each in its own process")
	seed := fs.Uint64("seed", 42, "seed of every generated input (R-MAT graph, ISort keys, request sequence)")
	seconds := fs.Float64("seconds", defaultSeconds, "how long each workload's timed part measures; repetition counts never drop below 3")
	traceFlag := fs.Int("trace", -1, "0: end-to-end pass only; 1: end-to-end pass then layer pass (default: both, all metrics printed)")
	layers := fs.Bool("layers", false, "same as -trace 1")
	size := fs.String("size", "full", "input size class: full or smoke")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, spans.json and scratch files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sz, err := sizeClass(*size)
	if err == nil && (fs.NArg() != 0 || *traceFlag < -1 || *traceFlag > 1) {
		err = fmt.Errorf("unexpected arguments %v or -trace %d (want 0 or 1)", fs.Args(), *traceFlag)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, size: sz, out: *out,
		layers: *layers || *traceFlag != 0}
	mode := *traceFlag
	if *layers {
		mode = 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	res := newResultFile(o)
	if o.workload != "" {
		wr, err := runWorkload(o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res.Workloads[o.workload] = wr
	} else if err := runChildren(o, mode, res, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := res.write(filepath.Join(o.out, "result.json")); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, failed := res.lastLine(mode)
	fmt.Fprintln(stdout, line)
	if failed > 0 {
		return 1
	}
	return 0
}

// runChildren runs every workload in a process of its own, so that one
// workload's heap, collector state and peak RSS cannot leak into the
// next one's numbers, and merges their result files.
func runChildren(o options, mode int, res *resultFile, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames {
		dir := filepath.Join(o.out, name)
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-size", o.size.name, "-out", dir}
		if mode >= 0 {
			args = append(args, "-trace", fmt.Sprint(mode))
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		child, err := readResultFile(filepath.Join(dir, "result.json"))
		if err != nil {
			return fmt.Errorf("workload %s: %v (%v)", name, runErr, err)
		}
		res.Workloads[name] = child.Workloads[name]
	}
	return nil
}

// runWorkload sets a workload up, runs its end-to-end pass and, when
// asked, its layer pass, and prints its metrics.
func runWorkload(o options, stdout io.Writer) (*workloadResult, error) {
	tmp := filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer removeAll(tmp)
	s := newSamples()
	rec := newRecorder(o.workload)
	sz := o.size
	// Each case sets the workload up, runs its end-to-end pass, and
	// leaves its layer pass for after the peak RSS has been read.
	var layers func() error
	switch o.workload {
	case "tc_p256_agg", "tc_p16_full":
		p, err := setupTriangle(s, sz, o.seed)
		if err != nil {
			return nil, err
		}
		if o.workload == "tc_p256_agg" {
			tcP256E2E(s, p, sz, o.seconds)
			layers = func() error {
				twin := sz.machine(sz.twinPEs)
				return runLayers(rec, p, sz.machine(sz.bigPEs), &twin, aggregateTrace(), sz, sz.bigLadderReps, nil)
			}
		} else {
			tcP16FullE2E(s, p, sz, o.seconds, tmp)
			layers = func() error { return tcP16FullLayers(rec, s, p, sz, tmp) }
		}
	case "isort_p64_batch":
		p, m := setupISort(s, sz, o.seed), sz.machine(sz.isortPEs)
		runE2E(s, o.workload, p, m, aggregateTrace(), sz, o.seconds, true)
		layers = func() error { return runLayers(rec, p, m, nil, aggregateTrace(), sz, sz.ladderReps, nil) }
	case "serve_zipf":
		w, err := setupServeRepeated(s, sz, o.seed, sz.requests(o.seconds), tmp)
		if err != nil {
			return nil, err
		}
		serveE2E(s, w)
		layers = func() error { return serveLayers(rec, s, w, sz) }
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	s.set("peak_rss_mb", peakRSSMB())
	if o.layers {
		if err := layers(); err != nil {
			s.check(false, "layer pass: %v", err)
		}
		// The per-layer numbers are computed from the span file, not from
		// the recorder that produced it.
		path := filepath.Join(o.out, "spans.json")
		if err := rec.write(path); err != nil {
			return nil, err
		}
		loaded, err := readSpans(path)
		if err != nil {
			return nil, err
		}
		layerMetrics(loaded, s)
	}
	wr := newWorkloadResult(s)
	if err := finite(wr.Metrics); err != nil {
		return nil, err
	}
	wr.print(o.workload, stdout)
	return wr, nil
}

// graphCandidates is how many R-MAT graphs a seed draws before one is
// chosen. Wall-clock at 256 PEs follows the message count of the hottest
// PE almost exactly (19 us per message of that one PE at scale 12), and
// that count varies by +-5% between R-MAT seeds: between two seeds, the
// input would differ by more than most changes to the code do. So the
// seed draws seven graphs and the workloads run the one whose hottest PE
// is the median of the seven - a typical graph for the seed, still a
// function of nothing but the seed.
const graphCandidates = 7

// typicalGraph returns the candidate with the median hottest-PE wedge
// count under the scale-up machine's distribution.
func typicalGraph(sz sizes, stream *splitmix64) (*graph.Graph, error) {
	type candidate struct {
		g   *graph.Graph
		hot int64
	}
	dist := graph.NewCyclicDist(sz.bigPEs)
	cands := make([]candidate, graphCandidates)
	for i := range cands {
		g, err := graph.GenerateRMAT(graph.Graph500(sz.scale, sz.edgeFactor, stream.next()))
		if err != nil {
			return nil, err
		}
		cands[i].g = g
		for _, w := range graph.WedgesPerPE(g, dist) {
			cands[i].hot = max(cands[i].hot, w)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].hot < cands[j].hot })
	return cands[len(cands)/2].g, nil
}

// setupTriangle generates the R-MAT graph both triangle workloads share
// and computes its serial triangle count, several times; setup_s is the
// median.
func setupTriangle(s *samples, sz sizes, seed uint64) (*program, error) {
	var g *graph.Graph
	var expected int64
	for i := 0; i < sz.setupReps; i++ {
		start := time.Now()
		var err error
		if g, err = typicalGraph(sz, workloadStream(seed, "tc")); err != nil {
			return nil, err
		}
		mid := time.Now()
		expected = g.CountTrianglesSerial()
		end := time.Now()
		s.add("graph.rmat_gen_s", mid.Sub(start).Seconds()/graphCandidates)
		s.add("graph.serial_count_s", end.Sub(mid).Seconds())
		s.add("setup_s", end.Sub(start).Seconds())
	}
	return triangleProgram(g, expected), nil
}

// setupISort computes the serial reference the distributed sort is
// checked against; the keys themselves are generated by the program
// from the seed it is handed.
func setupISort(s *samples, sz sizes, seed uint64) *program {
	cfg := apps.ISortConfig{KeysPerPE: sz.isortKeys, BucketWidth: sz.isortWidth,
		Seed: workloadStream(seed, "isort_p64_batch").next()}
	var reference [][]int64
	for i := 0; i < min(sz.setupReps, 3); i++ {
		start := time.Now()
		reference = apps.ISortSerial(sz.isortPEs, cfg)
		s.add("setup_s", time.Since(start).Seconds())
	}
	return isortProgram(cfg, reference)
}

// setupServeRepeated builds the serve workload several times, each in a
// fresh directory, and keeps the last.
func setupServeRepeated(s *samples, sz sizes, seed uint64, requests int, tmp string) (*serveWorkload, error) {
	var w *serveWorkload
	for i := 0; i < sz.serveSetupReps; i++ {
		root := filepath.Join(tmp, fmt.Sprintf("root%d", i))
		start := time.Now()
		next, err := setupServe(root, sz, seed, requests)
		if err != nil {
			return nil, err
		}
		s.add("setup_s", time.Since(start).Seconds())
		if w != nil {
			removeAll(w.fx.root)
		}
		w = next
	}
	return w, nil
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6 // bytes there, kilobytes elsewhere
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// --- result file ------------------------------------------------------------

type workloadResult struct {
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FailRatio float64         `json:"fail_ratio"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

func newWorkloadResult(s *samples) *workloadResult {
	wr := &workloadResult{Attempted: s.attempted, Failed: s.failed, Failures: s.failures, Metrics: s.stats()}
	if s.attempted > 0 {
		wr.FailRatio = float64(s.failed) / float64(s.attempted)
	}
	return wr
}

func (wr *workloadResult) print(name string, w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed (fail_ratio %g)\n", name, wr.Attempted, wr.Failed, wr.FailRatio)
	for _, f := range wr.Failures {
		fmt.Fprintln(w, "   FAILED:", f)
	}
	section := func(title string, kinds ...metricKind) {
		names := sortedNames(wr.Metrics, kinds...)
		if len(names) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, n := range names {
			st := wr.Metrics[n]
			fmt.Fprintf(w, "    %-36s %14.6g %-7s n=%-3d q1=%.6g q3=%.6g\n", n, st.Median, st.Unit, st.N, st.Q1, st.Q3)
		}
	}
	section("end to end (median)", gated, endToEnd)
	section("per layer (median)", layer)
}

type resultFile struct {
	Schema     int                        `json:"schema"`
	Seed       uint64                     `json:"seed"`
	Size       string                     `json:"size"`
	Seconds    float64                    `json:"seconds"`
	Commit     string                     `json:"commit"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Go         string                     `json:"go"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func newResultFile(o options) *resultFile {
	return &resultFile{
		Schema: 1, Seed: o.seed, Size: o.size.name, Seconds: o.seconds, Commit: commit(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workloads: map[string]*workloadResult{},
	}
}

// commit names the source being measured, when a git checkout says.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *resultFile) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// lastLine is the one-object summary a driver reads: with mode 0 every
// gated metric, with mode 1 every per_layer metric of BENCHMARK.json
// (0 where the workload does not cross the layer), otherwise both.
// Workloads are prefixed only when more than one ran.
func (r *resultFile) lastLine(mode int) (string, int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for name, wr := range r.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = name + "/"
		}
		for _, d := range metricDefs {
			if (mode == 0 && d.kind != gated) || (mode == 1 && d.kind == gated) {
				continue
			}
			line.Metrics[prefix+d.name] = value{Value: wr.Metrics[d.name].Median, Unit: d.unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(data), line.Failed
}
