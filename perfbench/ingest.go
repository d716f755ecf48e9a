package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/analytic"
	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// pointTreeFanout matches the R-tree fanout Build packs point sets with.
const pointTreeFanout = 16

// disk returns every lattice point (x,y) with x²+y² < r², shifted by
// (ox+r, oy+r) so all coordinates are non-negative.
func disk(r, ox, oy int) [][]int {
	var pts [][]int
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
			if x*x+y*y < r*r {
				pts = append(pts, []int{x + r + ox, y + r + oy})
			}
		}
	}
	return pts
}

// ingestInputs are the generated inputs of the ingest workload.
type ingestInputs struct {
	points [][]int
	pbox   spectrallpm.Box // the checked box query on the point index
	reqs   []*request      // the checked request mix on the grid index
}

// runIngest runs the ingest workload: cycles of Build → WriteToV2 →
// OpenMapped over the grid and the disk, each mapped file checked by
// queries whose answers must equal the built index's.
func runIngest(opt options) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	if opt.trace {
		if err := buildLayers(ctx, opt, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// Set-up: the inputs, and the oracle for the grid's request mix from
	// one in-memory build.
	t0 := time.Now()
	in, err := ingestSetup(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", time.Since(t0).Seconds())
	rep.notef("ingest: grid %d records, disk %d points, requests: %s", opt.size.side*opt.size.side, len(in.points), opCounts(in.reqs))

	var (
		gridBuild, ptsBuild []time.Duration
		fileBytes           int64
		st                  = &loadStats{}
	)
	deadline := time.Now().Add(secondsDur(opt.seconds))
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		// Grid.
		tb := time.Now()
		ix, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(opt.size.side, opt.size.side))
		if err != nil {
			return nil, err
		}
		gridBuild = append(gridBuild, time.Since(tb))
		path := filepath.Join(opt.workDir, "grid.lpm2")
		if fileBytes, err = writeFile(path, func(bw *bufio.Writer) (int64, error) { return ix.WriteToV2(bw) }); err != nil {
			return nil, err
		}
		mx, err := spectrallpm.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		st.merge(queryMix(ctx, mx, in.reqs))
		if err := mx.Close(); err != nil {
			return nil, err
		}

		// Points.
		tb = time.Now()
		px, err := spectrallpm.Build(ctx, spectrallpm.WithPoints(in.points))
		if err != nil {
			return nil, err
		}
		ptsBuild = append(ptsBuild, time.Since(tb))
		ppath := filepath.Join(opt.workDir, "points.lpm2")
		if _, err := writeFile(ppath, func(bw *bufio.Writer) (int64, error) { return px.WriteToV2(bw) }); err != nil {
			return nil, err
		}
		pm, err := spectrallpm.OpenMapped(ppath)
		if err != nil {
			return nil, err
		}
		st.attempted++
		if err := sameBox(ctx, px, pm, in.pbox); err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
		if err := pm.Close(); err != nil {
			return nil, err
		}
	}
	rep.count(st.attempted, st.failed)
	serveMetrics(rep, st, ingestLimit)
	rep.set("build_grid_s", "s", medianDur(gridBuild).Seconds())
	rep.set("build_points_s", "s", medianDur(ptsBuild).Seconds())
	rep.set("bytes_per_record", "B", float64(fileBytes)/float64(opt.size.side*opt.size.side))
	rep.notef("ingest: %d cycles", len(gridBuild))
	return rep, nil
}

func ingestSetup(ctx context.Context, opt options) (*ingestInputs, error) {
	rng := rand.New(rand.NewPCG(uint64(opt.seed), 0x1e57))
	r := opt.size.radius
	in := &ingestInputs{points: disk(r, rng.IntN(r), rng.IntN(r))}
	w := r / 2
	p := in.points[rng.IntN(len(in.points))]
	in.pbox = spectrallpm.Box{Start: []int{max(p[0]-w/2, 0), max(p[1]-w/2, 0)}, Dims: []int{w, w}}
	ix, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(opt.size.side, opt.size.side))
	if err != nil {
		return nil, err
	}
	in.reqs = generate(opt.seed, opt.size.requests, opt.size.side, opt.size.batch, daemonMix, nil)
	if err := oracle(ix, in.reqs); err != nil {
		return nil, err
	}
	return in, nil
}

// queryMix answers every request in-process on q, through the same
// encoders the daemon uses, timing each and checking it against the
// oracle. The pass is one window of the ingest run's request metrics.
func queryMix(ctx context.Context, q server.Queryable, reqs []*request) *loadStats {
	win := &window{}
	st := &loadStats{windows: []*window{win}}
	ps := server.GetProto()
	defer ps.Put()
	start := time.Now()
	defer func() {
		win.dur = time.Since(start)
		st.elapsed = win.dur
	}()
	for _, r := range reqs {
		t0 := time.Now()
		err := answer(ctx, q, r, ps)
		lat := time.Since(t0)
		if err == nil {
			err = r.check(ps.Buf)
		}
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.lat[r.op] = append(st.lat[r.op], int64(lat))
		win.lat[r.op] = append(win.lat[r.op], int64(lat))
	}
	return st
}

// sameBox checks that the mapped index answers a non-empty box query
// exactly as the index it was written from.
func sameBox(ctx context.Context, built, mapped server.Queryable, b spectrallpm.Box) error {
	r := &request{path: "/v1/box", boxes: []spectrallpm.Box{b}}
	ps := server.GetProto()
	defer ps.Put()
	if err := answer(ctx, built, r, ps); err != nil {
		return err
	}
	want := bytes.Clone(ps.Buf)
	if err := answer(ctx, mapped, r, ps); err != nil {
		return err
	}
	if !bytes.Equal(want, ps.Buf) || bytes.Count(want, []byte("],[")) == 0 {
		return fmt.Errorf("box %v: mapped answer differs from the build or is empty", b)
	}
	return nil
}

// allocs measures fn's heap allocations.
func allocs(fn func() error) (mallocs, bytes uint64, d time.Duration, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = fn()
	d = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, d, err
}

// buildLayers times each build layer by direct calls on the workload
// inputs, next to the whole Build and the v2 codec, and reports how much
// of Build's wall time the layer spans cover.
func buildLayers(ctx context.Context, opt options, rep *report) error {
	side := opt.size.side
	pts := disk(opt.size.radius, 0, 0)

	// Whole builds, with their allocations.
	var gix, pix *spectrallpm.Index
	ga, gb, gd, err := allocs(func() (err error) {
		gix, err = spectrallpm.Build(ctx, spectrallpm.WithGrid(side, side))
		return err
	})
	if err != nil {
		return err
	}
	pa, pb, pd, err := allocs(func() (err error) {
		pix, err = spectrallpm.Build(ctx, spectrallpm.WithPoints(pts))
		return err
	})
	if err != nil {
		return err
	}
	rep.set("build.allocs.grid", "count", float64(ga))
	rep.set("build.bytes.grid", "B", float64(gb))
	rep.set("build.allocs.points", "count", float64(pa))
	rep.set("build.bytes.points", "B", float64(pb))
	rep.set("build.wall_ms.grid", "ms", ms(gd))
	rep.set("build.wall_ms.points", "ms", ms(pd))

	// Grid layers: closed-form order, rank materialization, row layout.
	g := graph.MustGrid(side, side)
	t0 := time.Now()
	ar, err := analytic.GridOrder(g, 0)
	if err != nil {
		return err
	}
	closed := time.Since(t0)
	t1 := time.Now()
	m, err := order.FromRanks("spectral", g, ar.Rank)
	if err != nil {
		return err
	}
	fromRanks := time.Since(t1)
	t2 := time.Now()
	rows := storage.BuildRows(g, m.Ranks())
	rowsD := time.Since(t2)
	if len(rows) == 0 {
		return fmt.Errorf("BuildRows returned no rows")
	}
	rep.set("order.closed_form_ms.grid", "ms", ms(closed))
	rep.set("order.from_ranks_ms.grid", "ms", ms(fromRanks))
	rep.set("storage.rows_ms.grid", "ms", ms(rowsD))
	rep.set("build.coverage.grid", "ratio", float64(closed+fromRanks+rowsD)/float64(gd))

	// Point layers: point graph, spectral order, R-tree pack.
	t0 = time.Now()
	pg, err := graph.PointGraph(pts)
	if err != nil {
		return err
	}
	graphD := time.Since(t0)
	t1 = time.Now()
	res, err := core.SpectralOrder(pg, core.Options{})
	if err != nil {
		return err
	}
	solve := time.Since(t1)
	t2 = time.Now()
	if _, err := rtree.Pack(pts, res.Order, pointTreeFanout); err != nil {
		return err
	}
	pack := time.Since(t2)
	rep.set("graph.build_ms.points", "ms", ms(graphD))
	rep.set("order.solve_ms.points", "ms", ms(solve))
	rep.set("rtree.pack_ms.points", "ms", ms(pack))
	rep.set("build.coverage.points", "ratio", float64(graphD+solve+pack)/float64(pd))

	// Codec: write and open both indexes.
	r := opt.size.radius
	for _, c := range []struct {
		name string
		ix   *spectrallpm.Index
		box  spectrallpm.Box
	}{
		{"grid", gix, spectrallpm.Box{Start: []int{0, 0}, Dims: []int{16, 16}}},
		{"points", pix, spectrallpm.Box{Start: []int{r / 2, r / 2}, Dims: []int{r, r}}},
	} {
		path := filepath.Join(opt.workDir, "layers-"+c.name+".lpm2")
		tw := time.Now()
		n, err := writeFile(path, func(bw *bufio.Writer) (int64, error) { return c.ix.WriteToV2(bw) })
		if err != nil {
			return err
		}
		wd := time.Since(tw)
		to := time.Now()
		mx, err := spectrallpm.OpenMapped(path)
		if err != nil {
			return err
		}
		od := time.Since(to)
		rep.count(1, 0)
		if err := sameBox(ctx, c.ix, mx, c.box); err != nil {
			rep.count(0, 1)
			rep.notef("codec %s: %v", c.name, err)
		}
		mx.Close()
		if c.name == "grid" && opt.workload == "ingest" {
			rep.set("write_ms", "ms", ms(wd))
			rep.set("open_ms", "ms", ms(od))
		}
		rep.set("codec.write_ms."+c.name, "ms", ms(wd))
		rep.set("codec.open_ms."+c.name, "ms", ms(od))
		rep.set("codec.file_bytes."+c.name, "B", float64(n))
	}
	return nil
}
