// Command psmbench is psmkit's end-to-end benchmark. It runs one workload
// against the real binaries (tracegen, psmgen, psmlint, psmd over HTTP),
// checks every model they produce byte for byte against the sequential
// batch flow, and prints every metric by name and unit. With --trace 1 it
// also runs a traced pass that calls the layers' public functions
// in-process under a benchmark-owned obs.Tracer and obs.Registry and
// reports per-layer numbers.
//
// Usage (from the repository root, after building with psmbench/run.sh):
//
//	psmbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the metric names and units are
// the ones BENCHMARK.json declares (end_to_end for --trace 0, per_layer
// for --trace 1). The exit code is non-zero when any operation failed or
// any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared is the metric catalogue of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// bench is one run: its configuration, scratch layout, failure
// accounting and the values measured so far.
type bench struct {
	bin     string // directory of the built binaries
	cache   string // per-checkout reference cache
	dir     string // this run's scratch directory (removed at exit)
	seed    int64
	seconds time.Duration // least time each workload's measured loop runs
	trace   bool          // traced pass requested
	out     io.Writer     // human-readable report

	attempted, failed int
	wrong             bool // a correctness check failed

	e2e   map[string]float64 // untraced end-to-end values
	layer map[string]float64 // traced per-layer values
}

var workloads = map[string]func(*bench) error{
	"offline-longts": (*bench).offline,
	"serve-2shard":   (*bench).serve,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("psmbench", flag.ContinueOnError)
	bin := fs.String("bin", "", "directory holding the built tracegen, psmgen, psmlint and psmd")
	work := fs.String("work", ".bench_build", "scratch directory (reference cache, per-run inputs)")
	wl := fs.String("workload", "", "workload: offline-longts or serve-2shard")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 10, "seconds each workload's measured loop runs (at least one iteration)")
	traced := fs.Int("trace", 0, "1 = report the per-layer metrics of the traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok || *bin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "psmbench: need -bin, a known --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmbench:", err)
		return 2
	}
	b := &bench{
		bin:     *bin,
		cache:   filepath.Join(*work, "cache"),
		dir:     filepath.Join(*work, "runs", fmt.Sprintf("%s-s%d", *wl, *seed)),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traced == 1,
		out:     stdout,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	for _, d := range []string{b.cache, b.dir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "psmbench:", err)
			return 1
		}
	}
	defer os.RemoveAll(b.dir)

	fmt.Fprintf(b.out, "# psmbench workload=%s seed=%d seconds=%d trace=%d\n", *wl, *seed, *seconds, *traced)
	fmt.Fprintf(b.out, "# machine: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())
	runErr := fn(b)
	if runErr != nil {
		b.op("workload "+*wl, runErr)
	}

	metrics := b.report(decl)
	res := result{Correct: !b.wrong && runErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// report prints the human-readable table and fills res with the metrics
// the mode owes: every end_to_end metric untraced, every per_layer metric
// traced. A declared metric the workload did not produce is a harness
// bug and fails the run.
func (b *bench) report(decl *declared) map[string]metric {
	out := map[string]metric{}
	missing := func(kind, name string) {
		b.wrong = true
		b.op("report", fmt.Errorf("%s metric %s was not measured", kind, name))
	}
	if b.attempted > 0 {
		fmt.Fprintf(b.out, "%-28s %14.6f %s   (%d failed of %d attempted)\n",
			"error_rate", float64(b.failed)/float64(b.attempted), "fraction", b.failed, b.attempted)
	}
	fmt.Fprintln(b.out, "# end-to-end (untraced)")
	for _, m := range decl.EndToEnd {
		v, ok := b.e2e[m.Name]
		fmt.Fprintf(b.out, "%-28s %14.6f %s\n", m.Name, v, m.Unit)
		if !b.trace {
			out[m.Name] = metric{Value: v, Unit: m.Unit}
			if !ok {
				missing("end-to-end", m.Name)
			}
		}
	}
	if !b.trace {
		return out
	}
	fmt.Fprintln(b.out, "# per-layer (traced pass)")
	for _, m := range decl.PerLayer {
		v, ok := b.layer[m.Name]
		fmt.Fprintf(b.out, "%-28s %14.6f %s\n", m.Name, v, m.Unit)
		out[m.Name] = metric{Value: v, Unit: m.Unit}
		if !ok {
			missing("per-layer", m.Name)
		}
	}
	return out
}

// op counts one attempted operation and, when err is non-nil, one
// failure. It returns err == nil.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "psmbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// checkBytes is one correctness check: got must equal want byte for byte.
func (b *bench) checkBytes(what string, got, want []byte) bool {
	err := compareBytes(got, want)
	if err != nil {
		b.wrong = true
	}
	return b.op("check "+what, err)
}

// compareBytes reports the first differing offset of two outputs.
func compareBytes(got, want []byte) error {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("output differs from the reference at byte %d (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("output length %d, reference %d", len(got), len(want))
	}
	return nil
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric catalogue: %w", err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
