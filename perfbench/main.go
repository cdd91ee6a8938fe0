// Command perfbench is the repository's request-level benchmark. It
// builds its own inputs from a seed, deploys the shipped binaries
// (bvindex, bvserve, bvrouter) on loopback, drives them over HTTP with
// an open-loop and a closed-loop phase, checks every answer against its
// own reference index, and prints the end-to-end metrics. With
// --trace 1 it instead replays the same inputs while timing calls into
// each layer's public functions, and prints the per-layer metrics.
//
//	go build -o bin/perfbench . && bin/perfbench --workload static-heavy --seed 1 --seconds 10 --trace 0
//
// It expects the binaries in --bin (see run.sh, which builds them and
// this program from the repository's source). The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run deploys from scratch; setup_s is
// the median, and the last deployment is the one measured.
const setupReps = 3

// maxLagP99 is the generator lateness beyond which a run's latencies
// are not reported: the schedule, not the system, would set them. A
// healthy generator on two busy cores stays under 5 ms.
const maxLagP99 = 10 * time.Millisecond

// bench holds what every phase of a run needs.
type bench struct {
	bin    string // directory holding the binaries under test
	work   string // scratch directory for this run
	spans  string // directory the traced run writes its spans to
	nconns int    // client connections: at most nproc
}

func (b *bench) tool(name string) string { return filepath.Join(b.bin, name) }

func (b *bench) conns(base string) []*conn {
	out := make([]*conn, b.nconns)
	for i := range out {
		out[i] = newConn(base)
	}
	return out
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: static-heavy | static-selective | live-ingest | routed-mix")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
		bin     = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory with bvindex, bvserve and bvrouter")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for indexes and logs")
		spans   = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fatalf("unknown --workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("want --seconds >= 1 and --trace 0 or 1")
	}
	nconns := min(2, runtime.NumCPU())
	if w.live && nconns < 2 {
		fatalf("%s needs two connections, a writer and a reader, and so two CPUs", w.name)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), w.name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{bin: *bin, work: dir, spans: *spans, nconns: nconns}
	var res *result
	if *trace == 1 {
		res, err = runTraced(b, w, *seed, *seconds)
	} else {
		res, err = runE2E(b, w, *seed, *seconds)
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatalf("%v", err)
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: the human report lines and the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines  []string
	order  []string // metric names in report order
	extras []string // reported metrics outside the JSON line
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// extra reports a metric in the table without adding it to the JSON
// line, which holds exactly the metrics BENCHMARK.json gates.
func (r *result) extra(name string, v float64, unit, detail string) {
	r.extras = append(r.extras, fmt.Sprintf("  %-44s %14.6g %-6s %s", name, v, unit, detail))
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// printNotes prints the human report without the JSON result line.
func (r *result) printNotes(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
}

func (r *result) print(f *os.File) {
	r.printNotes(f)
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range r.extras {
		fmt.Fprintln(f, l)
	}
	js, _ := json.Marshal(r) // plain numbers and strings always marshal
	fmt.Fprintln(f, string(js))
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// validity is the header every report starts with: what the numbers
// were measured on.
func validity(w *workload, seed uint64, b *bench) string {
	return fmt.Sprintf("perfbench %s seed %d: GOMAXPROCS=%d nproc=%d connections=%d open-loop rate=%g req/s",
		w.name, seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), b.nconns, w.rate)
}

var errInvalid = errors.New("invalid run")
