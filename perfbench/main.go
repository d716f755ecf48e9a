// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload for a fixed time and prints, as the last line of
// standard output, a JSON object with the run's correctness verdict and
// its metrics:
//
//	go build -o .bench_build/perfbench . && \
//	  .bench_build/perfbench --workload daemon-mixed --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for sizes and the reason each exists):
//
//   - daemon-mixed: one server.Server over the v2 mmap of a 1024×1024
//     grid, closed loop with two clients on loopback.
//   - cluster-scan: a cluster.Router over four shard workers of the same
//     grid, closed loop with two clients; half of the boxes cross a cut.
//   - ingest: repeated Build → WriteToV2 → OpenMapped cycles over the grid
//     and a 12,849-point disk, each checked by queries on the mapped file.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer breakdown instead, timed from spans the benchmark
// records around calls into each package's public functions. Nothing
// inside the program is changed to take these measurements.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and operation counts.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	// notes are human-readable context lines printed to standard error.
	notes []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a phase's operations to the run's totals.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	size     sizes
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: daemon-mixed, cluster-scan or ingest")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		trace    = flag.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
		work     = flag.String("work", ".bench_build/work", "directory for index files (removed afterwards)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), "run-")
	if err != nil {
		fatalf("work dir: %v", err)
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  dir,
		size:     defaultSizes,
	}
	rep, err := run(opt)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// run executes one workload and checks it reported its declared metrics.
func run(opt options) (*report, error) {
	var (
		rep *report
		err error
	)
	switch opt.workload {
	case "daemon-mixed", "cluster-scan":
		rep, err = runServing(opt)
	case "ingest":
		rep, err = runIngest(opt)
	default:
		return nil, fmt.Errorf("unknown workload %q (want daemon-mixed, cluster-scan or ingest)", opt.workload)
	}
	if err != nil {
		return nil, err
	}
	return rep, finish(rep, opt.trace)
}

func mustMkdir(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		fatalf("work dir: %v", err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		fatalf("work dir: %v", err)
	}
	return abs
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
