// Command lpmbench regenerates the paper's tables and figures as text
// tables (and optional ASCII plots). Run with -exp all to reproduce the
// full evaluation; see DESIGN.md for the experiment index. The serve
// experiment benchmarks the build-once/query-many Index API instead of a
// paper figure.
//
// Usage:
//
//	lpmbench -exp fig5a              # one experiment
//	lpmbench -exp all -plot          # everything, with ASCII plots
//	lpmbench -exp fig6a -fig6-side 8 # resize an experiment
//	lpmbench -exp serve -serve-side 64
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id: fig1|fig3|fig4|fig5a|fig5b|fig6a|fig6a-mean|fig6b|fig6a-hypercube|ext-affinity|ext-knn|ext-io|ext-solvers|serve|all")
		plot      = flag.Bool("plot", false, "render ASCII plots in addition to tables")
		extras    = flag.Bool("extras", false, "include beyond-paper series (base-3 Peano, Snake)")
		fig5side  = flag.Int("fig5a-side", 0, "override Figure 5a grid side (default 4)")
		fig5dims  = flag.Int("fig5a-dims", 0, "override Figure 5a dimensionality (default 5)")
		fig5b     = flag.Int("fig5b-side", 0, "override Figure 5b grid side (default 16)")
		fig6side  = flag.Int("fig6-side", 0, "override Figure 6 grid side (default 6)")
		fig6dims  = flag.Int("fig6-dims", 0, "override Figure 6 dimensionality (default 4)")
		seed      = flag.Int64("seed", 0, "eigensolver seed")
		solver    = flag.String("solver", "auto", "eigensolver: auto|exact|dense")
		parallel  = flag.Int("parallel", 0, "sparse-kernel goroutines (0 = GOMAXPROCS, 1 = serial)")
		serveSide = flag.Int("serve-side", 32, "serve experiment grid side")
		serveQ    = flag.Int("serve-q", 4, "serve experiment query side")
		shards    = flag.Int("shards", 0, "serve experiment: also build/serve a sharded spectral index with this many shards (0 = off)")
	)
	flag.Parse()

	method, err := spectrallpm.ParseSolverMethod(*solver)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpmbench: %v\n", err)
		os.Exit(2)
	}

	cfg := experiments.Config{
		Fig5aSide:     *fig5side,
		Fig5aDims:     *fig5dims,
		Fig5bSide:     *fig5b,
		Fig6Side:      *fig6side,
		Fig6Dims:      *fig6dims,
		IncludeExtras: *extras,
	}
	cfg.Solver.Seed = *seed
	cfg.Solver.Method = method
	cfg.Solver.Parallelism = *parallel

	if err := run(os.Stdout, strings.ToLower(*exp), cfg, *plot, serveConfig{side: *serveSide, qside: *serveQ, shards: *shards}); err != nil {
		fmt.Fprintf(os.Stderr, "lpmbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, cfg experiments.Config, plot bool, serve serveConfig) error {
	type figureFn func(experiments.Config) (*experiments.Figure, error)
	figures := []struct {
		id string
		fn figureFn
	}{
		{"fig1", experiments.Figure1},
		{"fig5a", experiments.Figure5a},
		{"fig5b", experiments.Figure5b},
		{"fig6a", experiments.Figure6a},
		{"fig6a-mean", experiments.Figure6aMean},
		{"fig6b", experiments.Figure6b},
		{"fig6a-hypercube", experiments.Figure6aHypercube},
		{"ext-affinity", experiments.ExtAffinity},
		{"ext-knn", experiments.ExtKNN},
		{"ext-clusters", experiments.ExtClusters},
	}
	ran := false
	for _, f := range figures {
		if exp != "all" && exp != f.id {
			continue
		}
		ran = true
		fig, err := f.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", f.id, err)
		}
		fmt.Fprintln(w, fig.Table())
		if plot {
			fmt.Fprintln(w, fig.Plot(64, 20))
		}
	}
	if exp == "all" || exp == "fig3" {
		ran = true
		if err := printFig3(w, cfg); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "fig4" {
		ran = true
		if err := printFig4(w, cfg); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "ext-io" {
		ran = true
		res, err := experiments.ExtIO(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Table())
	}
	if exp == "all" || exp == "ext-solvers" {
		ran = true
		if err := printSolvers(w, cfg); err != nil {
			return err
		}
	}
	if exp == "all" || exp == "serve" {
		ran = true
		if err := printServe(w, cfg, serve); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// serveConfig shapes the serve experiment: an NxN grid served under all
// positions of a qside x qside range query, optionally adding a sharded
// spectral row (-shards) so single-index and sharded build/serve costs sit
// side by side in one table.
type serveConfig struct {
	side   int
	qside  int
	shards int
}

// servingIndex is the query surface the serve experiment drives —
// satisfied by both *spectrallpm.Index and *spectrallpm.ShardedIndex, so
// single-index and sharded rows run the identical measurement loop.
type servingIndex interface {
	PagesInto(spectrallpm.Box, []spectrallpm.PageRun) ([]spectrallpm.PageRun, error)
	ScanInto(spectrallpm.Box, func(int, []int) bool) error
	QueryIO(spectrallpm.Box) (spectrallpm.IOStats, error)
	QueryBatch([]spectrallpm.Box) ([]spectrallpm.IOStats, error)
}

// printServe benchmarks the build-once/query-many split on the public
// Index API: one spectral solve (wall-clocked), a WriteTo/ReadIndex cycle
// (proving a server can reload without re-solving), then every position of
// the query box answered through the amortized serving pattern (ScanInto
// with a shared yield, PagesInto with a reused plan buffer — zero
// steady-state allocations), plus the same boxes pushed through the
// parallel QueryBatch, reporting both query throughputs and the average
// I/O plan per mapping. With -shards N a final row builds the spectral
// order as N parallel per-shard solves (BuildSharded) and serves through
// the shard planner, so the sharded build speedup and merge overhead are
// directly comparable to the single-index rows.
func printServe(w io.Writer, cfg experiments.Config, serve serveConfig) error {
	side, qside := serve.side, serve.qside
	if side < 2 {
		side = 32
	}
	if qside < 1 || qside > side {
		qside = 4
		if qside > side {
			qside = side
		}
	}
	var boxes []spectrallpm.Box
	for x := 0; x+qside <= side; x++ {
		for y := 0; y+qside <= side; y++ {
			boxes = append(boxes, spectrallpm.Box{Start: []int{x, y}, Dims: []int{qside, qside}})
		}
	}
	fmt.Fprintf(w, "SERVE — Index API on a %dx%d grid, all %dx%d range queries\n", side, side, qside, qside)
	fmt.Fprintf(w, "%-12s %12s %12s %10s %10s %12s %12s %12s\n",
		"mapping", "build ms", "reload ms", "queries", "scan qps", "io qps", "batch qps", "avg runs")
	var (
		spectralBuilt *spectrallpm.Index
		spectralName  string
	)
	for _, name := range spectrallpm.StandardMappings() {
		buildStart := time.Now()
		built, err := spectrallpm.Build(context.Background(),
			spectrallpm.WithGrid(side, side),
			spectrallpm.WithMapping(name),
			spectrallpm.WithSolver(cfg.Solver),
			spectrallpm.WithPageSize(8))
		if err != nil {
			return err
		}
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1e3

		// Persist and reload: the served index never re-solves.
		var file bytes.Buffer
		if _, err := built.WriteTo(&file); err != nil {
			return err
		}
		reloadStart := time.Now()
		ix, err := spectrallpm.ReadIndex(&file)
		if err != nil {
			return err
		}
		reloadMS := float64(time.Since(reloadStart).Microseconds()) / 1e3
		// Mark the analytic default-grid build path: a "spectral/cf" row
		// was ordered in closed form with zero eigensolves (forcing
		// -solver switches it back to an eigensolver row named plain
		// "spectral").
		if built.Solver() == spectrallpm.SolverClosedForm {
			name += "/cf"
		}
		if strings.HasPrefix(name, "spectral") {
			spectralBuilt, spectralName = built, name
		}
		if err := serveRow(w, name, ix, buildMS, reloadMS, boxes, qside); err != nil {
			return err
		}
	}
	var openNote string
	if spectralBuilt != nil {
		// The /cf marker is dropped from the row name: how the order was
		// solved is irrelevant to how the file is served.
		name := strings.TrimSuffix(spectralName, "/cf") + "/mmap"
		note, err := serveMappedRow(w, name, spectralBuilt, boxes, qside)
		if err != nil {
			return err
		}
		openNote = note
	}
	if serve.shards > 1 {
		buildStart := time.Now()
		built, err := spectrallpm.BuildSharded(context.Background(), serve.shards,
			spectrallpm.WithGrid(side, side),
			spectrallpm.WithSolver(cfg.Solver),
			spectrallpm.WithPageSize(8))
		if err != nil {
			return err
		}
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1e3
		var file bytes.Buffer
		if _, err := built.WriteTo(&file); err != nil {
			return err
		}
		reloadStart := time.Now()
		sx, err := spectrallpm.ReadSharded(&file)
		if err != nil {
			return err
		}
		reloadMS := float64(time.Since(reloadStart).Microseconds()) / 1e3
		name := fmt.Sprintf("sharded/%d", serve.shards)
		if err := serveRow(w, name, sx, buildMS, reloadMS, boxes, qside); err != nil {
			return err
		}
	}
	if openNote != "" {
		fmt.Fprintln(w, openNote)
	}
	fmt.Fprintln(w)
	return nil
}

// serveMappedRow persists the spectral index in the v2 binary format and
// serves it straight from a read-only file mapping. The reload column
// carries the open-to-first-query latency — OpenMapped validates
// checksums and permutations but never copies the arrays, so the first
// query runs before a v1 reader would have finished decoding — and the
// build column carries the WriteToV2 cost. The returned note compares
// that latency against the v1 JSON path (ReadIndex materializes the whole
// file before any query) on the same index.
func serveMappedRow(w io.Writer, name string, built *spectrallpm.Index, boxes []spectrallpm.Box, qside int) (string, error) {
	dir, err := os.MkdirTemp("", "lpmbench-mmap-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.slpm2")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	writeStart := time.Now()
	if _, err := built.WriteToV2(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	writeMS := float64(time.Since(writeStart).Microseconds()) / 1e3

	probe := boxes[0]
	var v1 bytes.Buffer
	if _, err := built.WriteTo(&v1); err != nil {
		return "", err
	}
	v1Start := time.Now()
	v1ix, err := spectrallpm.ReadIndex(bytes.NewReader(v1.Bytes()))
	if err != nil {
		return "", err
	}
	if _, err := v1ix.QueryIO(probe); err != nil {
		return "", err
	}
	v1MS := float64(time.Since(v1Start).Microseconds()) / 1e3

	openStart := time.Now()
	mx, err := spectrallpm.OpenMapped(path)
	if err != nil {
		return "", err
	}
	defer mx.Close()
	if _, err := mx.QueryIO(probe); err != nil {
		return "", err
	}
	openMS := float64(time.Since(openStart).Microseconds()) / 1e3

	if err := serveRow(w, name, mx, writeMS, openMS, boxes, qside); err != nil {
		return "", err
	}
	ratio := 0.0
	if openMS > 0 {
		ratio = v1MS / openMS
	}
	note := fmt.Sprintf("open-to-first-query: v1 read+decode %.3f ms, v2 mmap %.3f ms (%.0fx); mmap build column is the WriteToV2 cost", v1MS, openMS, ratio)
	return note, nil
}

// serveRow runs the measurement loop for one index flavor and prints its
// table row.
func serveRow(w io.Writer, name string, ix servingIndex, buildMS, reloadMS float64, boxes []spectrallpm.Box, qside int) error {
	var runsSum, scanned int
	scan := func(int, []int) bool { scanned++; return true }
	var plan []spectrallpm.PageRun
	var err error
	queryStart := time.Now()
	for _, box := range boxes {
		plan, err = ix.PagesInto(box, plan[:0])
		if err != nil {
			return err
		}
		runsSum += len(plan)
		if err := ix.ScanInto(box, scan); err != nil {
			return err
		}
	}
	elapsed := time.Since(queryStart).Seconds()
	if want := len(boxes) * qside * qside; scanned != want {
		return fmt.Errorf("serve: scanned %d records, want %d", scanned, want)
	}
	scanQPS := float64(len(boxes)) / elapsed

	// io qps and batch qps do identical per-box work (QueryIO), so
	// their ratio isolates what QueryBatch's parallel fan-out buys.
	ioStart := time.Now()
	for _, box := range boxes {
		if _, err := ix.QueryIO(box); err != nil {
			return err
		}
	}
	ioQPS := float64(len(boxes)) / time.Since(ioStart).Seconds()

	batchStart := time.Now()
	stats, err := ix.QueryBatch(boxes)
	if err != nil {
		return err
	}
	batchQPS := float64(len(stats)) / time.Since(batchStart).Seconds()

	fmt.Fprintf(w, "%-12s %12.2f %12.2f %10d %10.0f %12.0f %12.0f %12.2f\n",
		name, buildMS, reloadMS, len(boxes), scanQPS, ioQPS, batchQPS, float64(runsSum)/float64(len(boxes)))
	return nil
}

func printFig3(w io.Writer, cfg experiments.Config) error {
	res, err := experiments.Figure3(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG3 — the paper's 3x3 worked example")
	fmt.Fprintln(w, "Laplacian L(G):")
	for _, row := range res.Laplacian {
		for _, v := range row {
			fmt.Fprintf(w, "%4.0f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "lambda2 = %.6f (paper: 1)\n", res.Lambda2)
	fmt.Fprintf(w, "X       = %.3f\n", res.X)
	fmt.Fprintf(w, "S       = %v\n", res.S)
	fmt.Fprintf(w, "cost    = %.6f (optimal = lambda2; the eigenspace is degenerate, so X may differ from the paper's print while being equally optimal)\n\n", res.Cost)
	return nil
}

func printFig4(w io.Writer, cfg experiments.Config) error {
	res, err := experiments.Figure4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG4 — §4 connectivity variants on a 4x4 grid")
	fmt.Fprintf(w, "4-connectivity: lambda2 = %.4f, order = %v\n", res.FourConnLambda2, res.FourConnOrder)
	fmt.Fprintf(w, "8-connectivity: lambda2 = %.4f, order = %v\n\n", res.EightConnLambda, res.EightConnOrder)
	return nil
}

func printSolvers(w io.Writer, cfg experiments.Config) error {
	rows, err := experiments.ExtSolvers(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "EXT-SOLVERS — eigensolver cross-check on square-grid Laplacians")
	fmt.Fprintf(w, "%-16s%8s%14s%14s%10s\n", "method", "n", "lambda2", "residual", "ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s%8d%14.8f%14.3g%10.2f\n", r.Method, r.N, r.Lambda2, r.Residual, r.Millis)
	}
	fmt.Fprintln(w)
	return nil
}
