package spectrallpm_test

import (
	"context"
	"math"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// TestFacadeQuickstart exercises the README's quick-start path end to end
// through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	m := buildMapping(t, "spectral", 8, 8)
	if m.N() != 64 {
		t.Fatalf("N = %d", m.N())
	}
	r := m.RankAt([]int{3, 7})
	if r < 0 || r >= 64 {
		t.Fatalf("rank = %d", r)
	}
	st, err := spectrallpm.RangeSpan(m, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Max <= 0 || st.Queries != 36 {
		t.Fatalf("span stats %+v", st)
	}
}

func TestFacadePointSetWorkflow(t *testing.T) {
	// The arbitrary-point-set path: an L-shaped region.
	var points [][]int
	for x := 0; x < 6; x++ {
		points = append(points, []int{x, 0})
	}
	for y := 1; y < 4; y++ {
		points = append(points, []int{0, y})
	}
	g, err := spectrallpm.PointGraph(points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(points) || res.Components != 1 {
		t.Fatalf("result %+v", res)
	}
	// The L-shape is a path graph in disguise: the order must walk the L
	// from one end to the other — endpoints are point 5 (end of the arm)
	// and point 8 (top of the leg).
	first, last := res.Order[0], res.Order[len(res.Order)-1]
	if !(first == 5 && last == 8 || first == 8 && last == 5) {
		t.Errorf("L-shape endpoints %d, %d (want 5 and 8)", first, last)
	}
	cost, err := spectrallpm.LinearArrangementCost(g, res.Rank)
	if err != nil {
		t.Fatal(err)
	}
	if cost != float64(len(points)-1) {
		t.Errorf("L-shape minLA cost %v, want %v", cost, len(points)-1)
	}
}

func TestFacadeCurvesAndStore(t *testing.T) {
	h, err := spectrallpm.NewCurve("hilbert", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := spectrallpm.Build(context.Background(), spectrallpm.WithGrid(8, 8),
		spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	// The index ranks points by their index on the curve.
	for id := 0; id < 64; id++ {
		coords := ix.Mapping().Grid().Coords(id, nil)
		if r, err := ix.Rank(coords...); err != nil || r != int(h.Index(coords)) {
			t.Fatalf("point %v: rank %d (%v), curve index %d", coords, r, err, h.Index(coords))
		}
	}
	io, err := ix.QueryIO(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if io.Pages < 1 {
		t.Errorf("io %+v", io)
	}
}

func TestFacadeBisectAndCosts(t *testing.T) {
	grid := spectrallpm.MustGrid(4, 4)
	g := spectrallpm.GridGraph(grid, spectrallpm.Orthogonal)
	left, right, err := spectrallpm.Bisect(g, spectrallpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 8 || len(right) != 8 {
		t.Fatalf("bisection %v | %v", left, right)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	if _, err := spectrallpm.ArrangementCost(g, x); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStandardMappingsAll(t *testing.T) {
	for _, name := range spectrallpm.StandardMappings() {
		if m := buildMapping(t, name, 5, 5); m.N() != 25 {
			t.Fatalf("%s: N=%d", name, m.N())
		}
	}
}

func TestFacadePartialRangeSpanAndPairwise(t *testing.T) {
	m := buildMapping(t, "hilbert", 6, 6)
	ps, err := spectrallpm.PartialRangeSpan(m, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Shapes == 0 || ps.Max <= 0 {
		t.Errorf("partial span %+v", ps)
	}
	pairs := spectrallpm.PairwiseByManhattan(m)
	if pairs.MaxDistance != 10 || pairs.MaxGapAt(1) <= 0 {
		t.Errorf("pairwise %+v", pairs)
	}
	ax, err := spectrallpm.AxisGap(m, 0, 2)
	if err != nil || ax.Count == 0 {
		t.Errorf("axis gap %+v err %v", ax, err)
	}
	cl, err := spectrallpm.RangeClusters(m, []int{2, 2})
	if err != nil || cl.Mean < 1 {
		t.Errorf("clusters %+v err %v", cl, err)
	}
}

func TestFacadeSolverOptionsPlumbing(t *testing.T) {
	grid := spectrallpm.MustGrid(10, 10)
	want := 4 * math.Pow(math.Sin(math.Pi/20), 2)
	// Solver options reach the build: forcing the block solver opts out of
	// the closed form, and the solve finds the closed-form λ₂.
	ix, err := spectrallpm.Build(context.Background(), spectrallpm.WithGrid(10, 10),
		spectrallpm.WithSolver(spectrallpm.SolverOptions{Method: spectrallpm.MethodExact, Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 100 || ix.Solver() == spectrallpm.SolverClosedForm {
		t.Fatalf("index n=%d solver %q, want a 100-point solved index", ix.N(), ix.Solver())
	}
	if l2 := ix.Lambda2(); len(l2) != 1 || math.Abs(l2[0]-want) > 1e-6 {
		t.Errorf("index λ₂ = %v, want %v", l2, want)
	}
	// The graph-level entry point takes the same options.
	g := spectrallpm.GridGraph(grid, spectrallpm.Orthogonal)
	res, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{
		Solver: spectrallpm.SolverOptions{Method: spectrallpm.MethodExact, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda2[0]-want) > 1e-6 {
		t.Errorf("λ₂ = %v, want %v", res.Lambda2[0], want)
	}
}
