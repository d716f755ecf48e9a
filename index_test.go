package spectrallpm_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

func buildTestIndex(t testing.TB, opts ...spectrallpm.BuildOption) *spectrallpm.Index {
	t.Helper()
	ix, err := spectrallpm.Build(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildGridSpectral(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(8, 8))
	if ix.Name() != "spectral" || ix.N() != 64 || ix.D() != 2 {
		t.Fatalf("ix = %s/%d/%d-d", ix.Name(), ix.N(), ix.D())
	}
	if l2 := ix.Lambda2(); len(l2) != 1 || l2[0] <= 0 {
		t.Fatalf("lambda2 = %v", l2)
	}
	// The index (closed form) agrees with the graph-level solver path.
	g := spectrallpm.GridGraph(spectrallpm.MustGrid(8, 8), spectrallpm.Orthogonal)
	res, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 64; id++ {
		coords := ix.Mapping().Grid().Coords(id, nil)
		r, err := ix.Rank(coords...)
		if err != nil {
			t.Fatal(err)
		}
		if r != res.Rank[id] {
			t.Fatalf("vertex %d: index rank %d, solver rank %d", id, r, res.Rank[id])
		}
	}
}

func TestBuildCurveAndRankPointRoundTrip(t *testing.T) {
	for _, name := range []string{"hilbert", "gray", "morton", "peano", "sweep", "snake", "diagonal"} {
		ix := buildTestIndex(t, spectrallpm.WithGrid(5, 7), spectrallpm.WithMapping(name))
		if ix.Name() != name {
			t.Fatalf("name = %q, want %q", ix.Name(), name)
		}
		if ix.Lambda2() != nil {
			t.Fatalf("%s: unexpected lambda2", name)
		}
		for r := 0; r < ix.N(); r++ {
			p, err := ix.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ix.Rank(p...)
			if err != nil {
				t.Fatal(err)
			}
			if back != r {
				t.Fatalf("%s: Point/Rank round trip %d -> %v -> %d", name, r, p, back)
			}
		}
	}
}

func TestBuildOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := spectrallpm.Build(ctx); err == nil {
		t.Error("Build with no source accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(4, 4), spectrallpm.WithPoints([][]int{{0, 0}})); err == nil {
		t.Error("grid+points accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("nosuch")); !errors.Is(err, spectrallpm.ErrUnknownMapping) {
		t.Errorf("unknown mapping err = %v", err)
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}}), spectrallpm.WithMapping("hilbert")); !errors.Is(err, spectrallpm.ErrUnknownMapping) {
		t.Errorf("curve over points err = %v", err)
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(2, 2), spectrallpm.WithRanks([]int{0, 1, 2})); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("short ranks err = %v", err)
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(2, 2), spectrallpm.WithRanks([]int{0, 1, 2, 2})); !errors.Is(err, spectrallpm.ErrNotPermutation) {
		t.Errorf("dup ranks err = %v", err)
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(0)); err == nil {
		t.Error("page size 0 accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints([][]int{{0, 0}, {0, -1}})); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("negative point err = %v", err)
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints([][]int{{0, 0}, {0, 0}})); err == nil {
		t.Error("duplicate points accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := spectrallpm.Build(canceled, spectrallpm.WithGrid(8, 8)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx err = %v", err)
	}
	// Paths that never feed graph-shaping options into a solve reject them
	// instead of silently ignoring them (and, for spectral provenance,
	// persisting metadata the solve never used).
	pts := [][]int{{0, 0}, {0, 1}}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints(pts), spectrallpm.WithConnectivity(spectrallpm.Diagonal)); err == nil {
		t.Error("connectivity over points accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints(pts), spectrallpm.WithEdgeWeights(func(u, v int) float64 { return 2 })); err == nil {
		t.Error("edge weights over points accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"),
		spectrallpm.WithAffinity(spectrallpm.AffinityEdge{U: 0, V: 15, Weight: 9})); err == nil {
		t.Error("affinity over a curve mapping accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"),
		spectrallpm.WithConnectivity(spectrallpm.Diagonal)); err == nil {
		t.Error("diagonal connectivity over a curve mapping accepted")
	}
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(2, 2), spectrallpm.WithRanks([]int{0, 1, 2, 3}),
		spectrallpm.WithEdgeWeights(func(u, v int) float64 { return 2 })); err == nil {
		t.Error("edge weights over WithRanks accepted")
	}
	// Affinity over points is the §4 extension and stays allowed.
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints(pts),
		spectrallpm.WithAffinity(spectrallpm.AffinityEdge{U: 0, V: 1, Weight: 2})); err != nil {
		t.Errorf("affinity over points rejected: %v", err)
	}
}

func TestWithMappingIsCaseInsensitive(t *testing.T) {
	// Mixed case must hit the same dispatch branch as lowercase — in
	// particular "Spectral" must take the spectral path (solver options
	// honored, λ₂ recorded), not the curve fallback.
	upper := buildTestIndex(t, spectrallpm.WithGrid(6, 6), spectrallpm.WithMapping("Spectral"), spectrallpm.WithSeed(4))
	lower := buildTestIndex(t, spectrallpm.WithGrid(6, 6), spectrallpm.WithMapping("spectral"), spectrallpm.WithSeed(4))
	if len(upper.Lambda2()) != 1 {
		t.Fatalf("mixed-case spectral lost lambda2: %v", upper.Lambda2())
	}
	for r := 0; r < lower.N(); r++ {
		pu, err1 := upper.Point(r)
		pl, err2 := lower.Point(r)
		if err1 != nil || err2 != nil || pu[0] != pl[0] || pu[1] != pl[1] {
			t.Fatalf("rank %d: %v vs %v (%v, %v)", r, pu, pl, err1, err2)
		}
	}
	hilbert := buildTestIndex(t, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("HILBERT"))
	if hilbert.Name() != "hilbert" {
		t.Fatalf("name = %q", hilbert.Name())
	}
}

func TestIndexServingErrors(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"))
	if _, err := ix.Rank(1); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("bad arity err = %v", err)
	}
	if _, err := ix.Rank(1, 9); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("out-of-grid err = %v", err)
	}
	if _, err := ix.Point(-1); !errors.Is(err, spectrallpm.ErrRankOutOfRange) {
		t.Errorf("negative rank err = %v", err)
	}
	if _, err := ix.Point(16); !errors.Is(err, spectrallpm.ErrRankOutOfRange) {
		t.Errorf("big rank err = %v", err)
	}
	if _, err := ix.Scan(spectrallpm.Box{Start: []int{3, 3}, Dims: []int{2, 2}}); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("overflowing box err = %v", err)
	}
	if _, err := ix.Pages(spectrallpm.Box{Start: []int{0}, Dims: []int{1}}); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("bad box arity err = %v", err)
	}
	if _, err := ix.RankBatch([][]int{{0, 0}, {9, 9}}, nil); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Errorf("bad batch err = %v", err)
	}
}

func TestIndexScanStreamsBoxInRankOrder(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(6, 6), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	box := spectrallpm.Box{Start: []int{1, 2}, Dims: []int{3, 2}}
	seq, err := ix.Scan(box)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	prev := -1
	for r, p := range seq {
		if r <= prev {
			t.Fatalf("ranks not strictly increasing: %d after %d", r, prev)
		}
		prev = r
		if p[0] < 1 || p[0] >= 4 || p[1] < 2 || p[1] >= 4 {
			t.Fatalf("point %v outside box", p)
		}
		want, err := ix.Rank(p...)
		if err != nil || want != r {
			t.Fatalf("rank mismatch at %v: %d vs %d (%v)", p, r, want, err)
		}
		got++
	}
	if got != box.Volume() {
		t.Fatalf("scanned %d points, want %d", got, box.Volume())
	}

	// The page plan covers exactly the scanned ranks' pages and agrees
	// with QueryIO.
	runs, err := ix.Pages(box)
	if err != nil {
		t.Fatal(err)
	}
	io, err := ix.QueryIO(box)
	if err != nil {
		t.Fatal(err)
	}
	var planned int
	for i, run := range runs {
		if run.Pages < 1 {
			t.Fatalf("empty run %+v", run)
		}
		if i > 0 && runs[i-1].Start+runs[i-1].Pages >= run.Start {
			t.Fatalf("runs not disjoint/sorted: %+v", runs)
		}
		planned += run.Pages
	}
	if planned != io.Pages || len(runs) != io.Seeks {
		t.Fatalf("plan %+v disagrees with stats %+v", runs, io)
	}
}

func TestIndexRankBatchReusesDst(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("sweep"))
	coords := [][]int{{0, 0}, {1, 2}, {3, 3}}
	dst := make([]int, 0, 16)
	out, err := ix.RankBatch(coords, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out[:1][0] != &dst[:1][0] {
		t.Error("RankBatch reallocated despite sufficient capacity")
	}
	if len(out) != 3 || out[0] != 0 || out[1] != 6 || out[2] != 15 {
		t.Fatalf("batch = %v", out)
	}
	// Appends after existing elements.
	out2, err := ix.RankBatch(coords[:1], out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 4 || out2[3] != 0 {
		t.Fatalf("append batch = %v", out2)
	}
}

func TestBuildPointSetIndex(t *testing.T) {
	// An L-shaped point set: spectral order exists, curves don't apply.
	points := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}}
	ix := buildTestIndex(t, spectrallpm.WithPoints(points), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(2))
	if ix.N() != len(points) {
		t.Fatalf("N = %d", ix.N())
	}
	if dims := ix.Dims(); dims[0] != 3 || dims[1] != 3 {
		t.Fatalf("bounding dims = %v", dims)
	}
	if ix.Mapping() != nil {
		t.Fatal("point-set index leaked a grid mapping")
	}
	seen := make(map[int]bool)
	for _, p := range points {
		r, err := ix.Rank(p...)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0 || r >= ix.N() || seen[r] {
			t.Fatalf("rank %d invalid or duplicated", r)
		}
		seen[r] = true
		back, err := ix.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		if back[0] != p[0] || back[1] != p[1] {
			t.Fatalf("Point(%d) = %v, want %v", r, back, p)
		}
	}
	// Unindexed points answer ErrPointNotIndexed, in and out of the box.
	for _, p := range [][]int{{1, 1}, {2, 2}, {40, 40}} {
		if _, err := ix.Rank(p...); !errors.Is(err, spectrallpm.ErrPointNotIndexed) {
			t.Errorf("Rank(%v) err = %v", p, err)
		}
	}
	// Scan matches only indexed points; boxes may exceed the bounding box.
	seq, err := ix.Scan(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{100, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var col0 int
	for range seq {
		col0++
	}
	if col0 != 3 {
		t.Fatalf("scan matched %d points, want 3", col0)
	}
	if _, err := ix.Pages(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{3, 3}}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexConcurrentQueries hammers one Index from many goroutines; run
// with -race to verify the documented concurrency contract.
func TestIndexConcurrentQueries(t *testing.T) {
	ix := buildTestIndex(t, spectrallpm.WithGrid(12, 12), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(8))
	const workers = 16
	const iters = 200
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]int, 0, 64)
			for i := 0; i < iters; i++ {
				x, y := (w+i)%12, (w*i)%12
				if _, err := ix.Rank(x, y); err != nil {
					errCh <- err
					return
				}
				if _, err := ix.Point((w + i) % ix.N()); err != nil {
					errCh <- err
					return
				}
				var err error
				dst, err = ix.RankBatch([][]int{{x, y}, {y, x}}, dst[:0])
				if err != nil {
					errCh <- err
					return
				}
				box := spectrallpm.Box{Start: []int{x % 8, y % 8}, Dims: []int{3, 3}}
				seq, err := ix.Scan(box)
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				for range seq {
					n++
				}
				if n != 9 {
					errCh <- errors.New("short scan")
					return
				}
				if _, err := ix.Pages(box); err != nil {
					errCh <- err
					return
				}
				if _, err := ix.QueryIO(box); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestIndexWithAffinityPullsPairTogether(t *testing.T) {
	grid := []int{10, 10}
	base := buildTestIndex(t, spectrallpm.WithGrid(grid...), spectrallpm.WithSeed(1))
	u := []int{0, 0}
	v := []int{0, 9}
	g := spectrallpm.MustGrid(grid...)
	tuned := buildTestIndex(t, spectrallpm.WithGrid(grid...), spectrallpm.WithSeed(1),
		spectrallpm.WithAffinity(spectrallpm.AffinityEdge{U: g.ID(u), V: g.ID(v), Weight: 30}))
	gap := func(ix *spectrallpm.Index) int {
		ru, err := ix.Rank(u...)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := ix.Rank(v...)
		if err != nil {
			t.Fatal(err)
		}
		if ru > rv {
			return ru - rv
		}
		return rv - ru
	}
	if gb, gt := gap(base), gap(tuned); gt >= gb {
		t.Fatalf("affinity did not shrink the gap: base %d, tuned %d", gb, gt)
	}
}
