// Command lpm builds a locality-preserving index and prints the linear
// order, either for a full grid or for an arbitrary point set read from a
// file. The expensive spectral solve runs once; -save persists the built
// index in the versioned format and -load serves a previously saved index
// without re-solving.
//
// Usage:
//
//	lpm -mapping spectral -dims 16,16            # full grid
//	lpm -mapping hilbert -dims 8,8,8 -format csv
//	lpm -mapping spectral -points pts.txt        # one "x y z" point per line
//	lpm -mapping spectral -dims 16,16 -conn 8    # §4 eight-connectivity
//	lpm -dims 64,64 -save order.lpmx             # build once...
//	lpm -load order.lpmx                         # ...serve many times
//	lpm -dims 64,64 -save order.lpmx -saveformat v1   # portable JSON instead
//
// -save writes the mmap-able v2 binary format by default; -saveformat v1
// keeps the JSON interchange format. -load detects the format from the
// file's leading bytes, serving v2 files zero-copy from a read-only map.
//
// Output columns: rank, vertex id, coordinates.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

func main() {
	var (
		mapping  = flag.String("mapping", "spectral", "mapping: spectral|hilbert|gray|morton|peano|sweep|snake")
		dims     = flag.String("dims", "", "grid sides, comma separated (e.g. 16,16)")
		points   = flag.String("points", "", "file of points (one per line, space-separated integers); spectral mapping only")
		conn     = flag.Int("conn", 4, "grid connectivity for spectral: 4 (orthogonal) or 8 (diagonal)")
		format   = flag.String("format", "text", "output format: text|csv|json")
		seed     = flag.Int64("seed", 0, "eigensolver seed")
		solver   = flag.String("solver", "auto", "eigensolver: auto|exact|dense")
		pageSize = flag.Int("pagesize", spectrallpm.DefaultRecordsPerPage, "records per storage page")
		save     = flag.String("save", "", "write the built index to this file")
		saveFmt  = flag.String("saveformat", "v2", "index file format for -save: v2 (mmap-able binary) or v1 (portable JSON); -load auto-detects")
		load     = flag.String("load", "", "load a saved index instead of building (build flags like -mapping/-seed/-pagesize are ignored: the file's saved configuration wins)")
		shards   = flag.Int("shards", 0, "build a sharded index with this many shards and -save it as a multi-shard v2 container (servable whole, or one shard per lpmserve worker)")
	)
	flag.Parse()
	cfg := config{
		mapping: *mapping, dims: *dims, points: *points, conn: *conn,
		format: *format, seed: *seed, solver: *solver, pageSize: *pageSize,
		save: *save, saveFormat: *saveFmt, load: *load, shards: *shards,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lpm: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	mapping, dims, points string
	conn                  int
	format                string
	seed                  int64
	solver                string
	pageSize              int
	save, saveFormat      string
	load                  string
	shards                int
}

type row struct {
	Rank   int   `json:"rank"`
	ID     int   `json:"id"`
	Coords []int `json:"coords"`
}

func run(w io.Writer, cfg config) error {
	if cfg.shards > 1 {
		return runSharded(w, cfg)
	}
	ix, err := buildIndex(context.Background(), cfg)
	if err != nil {
		return err
	}
	// Loaded v2 indexes serve from a read-only file mapping; Close releases
	// it (a no-op for built and v1-loaded indexes).
	defer ix.Close()
	if cfg.save != "" {
		if err := saveIndex(ix, cfg.save, cfg.saveFormat); err != nil {
			return err
		}
	}
	rows, err := orderRows(ix)
	if err != nil {
		return err
	}
	return emit(w, rows, cfg.format)
}

// runSharded builds a multi-shard index and persists the v2 container —
// the input both to whole-container serving (lpmserve -index) and to the
// distributed worker/router roles (lpmserve -role worker -shard N).
func runSharded(w io.Writer, cfg config) error {
	if cfg.save == "" {
		return fmt.Errorf("-shards requires -save (a sharded build exists to be served from its container file)")
	}
	if cfg.saveFormat != "" && cfg.saveFormat != "v2" {
		return fmt.Errorf("sharded containers are v2-only, got -saveformat %q", cfg.saveFormat)
	}
	opts, err := buildOptions(cfg)
	if err != nil {
		return err
	}
	sx, err := spectrallpm.BuildSharded(context.Background(), cfg.shards, opts...)
	if err != nil {
		return err
	}
	defer sx.Close()
	f, err := os.Create(cfg.save)
	if err != nil {
		return err
	}
	if _, err := sx.WriteToV2(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "sharded index: %d records, %d shards -> %s\n", sx.N(), sx.NumShards(), cfg.save)
	for s := 0; s < sx.NumShards(); s++ {
		lo, hi, offset, records := sx.ShardBounds(s)
		fmt.Fprintf(w, "  shard %d: ranks [%d,%d) bounds lo=%v hi=%v\n", s, offset, offset+records, lo, hi)
	}
	return nil
}

// orderRows lists the index's points in rank order, with the id column
// carrying the row-major vertex id (grids) or the input point index
// (point sets).
func orderRows(ix *spectrallpm.Index) ([]row, error) {
	rows := make([]row, ix.N())
	if pts := ix.Points(); pts != nil {
		for i, p := range pts {
			r, err := ix.Rank(p...)
			if err != nil {
				return nil, err
			}
			rows[r] = row{Rank: r, ID: i, Coords: p}
		}
		return rows, nil
	}
	m := ix.Mapping()
	for r := range rows {
		coords, err := ix.Point(r)
		if err != nil {
			return nil, err
		}
		rows[r] = row{Rank: r, ID: m.Vertex(r), Coords: coords}
	}
	return rows, nil
}

// buildIndex resolves the three sources — a saved index file, a point
// file, or grid dimensions — into a served Index.
func buildIndex(ctx context.Context, cfg config) (*spectrallpm.Index, error) {
	if cfg.load != "" {
		if cfg.dims != "" || cfg.points != "" {
			return nil, fmt.Errorf("-load serves a saved index as-is; it cannot be combined with -dims or -points (rebuild and -save instead)")
		}
		// OpenIndex sniffs the leading magic bytes: v2 files are served
		// zero-copy from a read-only map, anything else falls back to the
		// v1 JSON reader.
		return spectrallpm.OpenIndex(cfg.load)
	}
	opts, err := buildOptions(cfg)
	if err != nil {
		return nil, err
	}
	return spectrallpm.Build(ctx, opts...)
}

// buildOptions resolves the shared build flags into BuildOptions for both
// the single-index and sharded builds.
func buildOptions(cfg config) ([]spectrallpm.BuildOption, error) {
	method, err := spectrallpm.ParseSolverMethod(cfg.solver)
	if err != nil {
		return nil, err
	}
	opts := []spectrallpm.BuildOption{
		spectrallpm.WithSeed(cfg.seed),
		spectrallpm.WithSolverMethod(method),
		spectrallpm.WithPageSize(cfg.pageSize),
	}
	switch {
	case cfg.points != "":
		if cfg.mapping != "spectral" {
			return nil, fmt.Errorf("point files require -mapping spectral (curves need a grid)")
		}
		pts, err := readPoints(cfg.points)
		if err != nil {
			return nil, err
		}
		opts = append(opts, spectrallpm.WithPoints(pts))
	case cfg.dims != "":
		sides, err := parseDims(cfg.dims)
		if err != nil {
			return nil, err
		}
		opts = append(opts, spectrallpm.WithGrid(sides...), spectrallpm.WithMapping(cfg.mapping))
		switch cfg.conn {
		case 4:
			opts = append(opts, spectrallpm.WithConnectivity(spectrallpm.Orthogonal))
		case 8:
			opts = append(opts, spectrallpm.WithConnectivity(spectrallpm.Diagonal))
		default:
			return nil, fmt.Errorf("connectivity must be 4 or 8, got %d", cfg.conn)
		}
	default:
		return nil, fmt.Errorf("provide -dims, -points, or -load (see -h)")
	}
	return opts, nil
}

func saveIndex(ix *spectrallpm.Index, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "", "v2": // the flag default; "" covers direct config construction
		_, err = ix.WriteToV2(f)
	case "v1":
		_, err = ix.WriteTo(f)
	default:
		err = fmt.Errorf("unknown -saveformat %q (want v1 or v2)", format)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func emit(w io.Writer, rows []row, format string) error {
	out := bufio.NewWriter(w)
	defer out.Flush()
	switch format {
	case "text":
		for _, r := range rows {
			fmt.Fprintf(out, "%6d  id=%-6d coords=%v\n", r.Rank, r.ID, r.Coords)
		}
	case "csv":
		w := csv.NewWriter(out)
		header := []string{"rank", "id", "coords"}
		if err := w.Write(header); err != nil {
			return err
		}
		for _, r := range rows {
			cs := make([]string, len(r.Coords))
			for i, c := range r.Coords {
				cs[i] = strconv.Itoa(c)
			}
			if err := w.Write([]string{strconv.Itoa(r.Rank), strconv.Itoa(r.ID), strings.Join(cs, " ")}); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

func parseDims(s string) ([]int, error) {
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == 'x' || r == ' ' })
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty -dims")
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func readPoints(path string) ([][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts [][]int
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		p := make([]int, len(fields))
		for i, fl := range fields {
			v, err := strconv.Atoi(fl)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad coordinate %q", path, line, fl)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	return pts, nil
}
