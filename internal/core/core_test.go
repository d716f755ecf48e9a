package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// paperFigure3X is the Fiedler vector the paper prints for its 3x3 worked
// example (Figure 3d), vertices row-major.
var paperFigure3X = []float64{-0.01, -0.29, -0.57, 0.28, 0, -0.28, 0.57, 0.29, 0.01}

// paperFigure3S is the paper's resulting linear order S.
var paperFigure3S = []int{2, 1, 5, 0, 4, 8, 3, 7, 6}

func grid3x3() *graph.Graph {
	return graph.GridGraph(graph.MustGrid(3, 3), graph.Orthogonal)
}

func TestFigure3Lambda2IsOne(t *testing.T) {
	// Paper Figure 3d: λ₂ = 1 for the 3x3 four-connected grid.
	res, err := SpectralOrder(grid3x3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lambda2) != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	if math.Abs(res.Lambda2[0]-1) > 1e-7 {
		t.Errorf("λ₂ = %v, want 1 (paper Figure 3)", res.Lambda2[0])
	}
}

func TestFigure3PaperVectorIsOptimal(t *testing.T) {
	// The paper's printed X must satisfy the Theorem 1/2 optimality
	// conditions against OUR Laplacian and objective: X ⊥ 1 and
	// Rayleigh quotient exactly λ₂ = 1 (the rounding in the paper's
	// digits happens to cancel: ‖X‖² = 0.975 and cost = 0.975).
	g := grid3x3()
	var sum, norm2 float64
	for _, v := range paperFigure3X {
		sum += v
		norm2 += v * v
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("paper X not orthogonal to ones: sum = %v", sum)
	}
	cost, err := ArrangementCost(g, paperFigure3X)
	if err != nil {
		t.Fatal(err)
	}
	if rq := cost / norm2; math.Abs(rq-1) > 1e-9 {
		t.Errorf("paper X Rayleigh quotient = %v, want 1", rq)
	}
}

func TestFigure3PaperOrderIsSortOfPaperVector(t *testing.T) {
	// Step 5 of the algorithm: S is the ascending order of the x_i. The
	// paper's S must equal the argsort of the paper's X.
	idx := make([]int, len(paperFigure3X))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return paperFigure3X[idx[a]] < paperFigure3X[idx[b]] })
	for i := range idx {
		if idx[i] != paperFigure3S[i] {
			t.Fatalf("argsort of paper X = %v, paper S = %v", idx, paperFigure3S)
		}
	}
}

func TestFigure3OurOrderIsEquallyOptimal(t *testing.T) {
	// λ₂ of the 3x3 grid has multiplicity 2, so our Fiedler vector may
	// differ from the paper's, but it must be equally optimal: unit norm,
	// ⊥ 1, ArrangementCost = λ₂ = 1.
	g := grid3x3()
	res, err := SpectralOrder(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum, norm2 float64
	for _, v := range res.Fiedler {
		sum += v
		norm2 += v * v
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("Fiedler assignment not ⊥ ones: %v", sum)
	}
	if math.Abs(norm2-1) > 1e-6 {
		t.Errorf("Fiedler assignment norm² = %v", norm2)
	}
	cost, _ := ArrangementCost(g, res.Fiedler)
	if math.Abs(cost-1) > 1e-6 {
		t.Errorf("ArrangementCost = %v, want λ₂ = 1", cost)
	}
	checkPermutation(t, res.Order, 9)
}

func TestSpectralOrderPathIsSequential(t *testing.T) {
	// On a path graph the Fiedler vector is strictly monotone, so the
	// spectral order must be 0,1,...,n-1 or its reverse — the provably
	// optimal linear arrangement of a path.
	const n = 20
	res, err := SpectralOrder(graph.Path(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	forward, backward := true, true
	for i := 0; i < n; i++ {
		if res.Order[i] != i {
			forward = false
		}
		if res.Order[i] != n-1-i {
			backward = false
		}
	}
	if !forward && !backward {
		t.Errorf("path order = %v", res.Order)
	}
	cost, _ := LinearArrangementCost(graph.Path(n), res.Rank)
	if cost != float64(n-1) {
		t.Errorf("path minLA cost = %v, want %v", cost, n-1)
	}
}

func TestSpectralOrderEmptyGraph(t *testing.T) {
	res, err := SpectralOrder(graph.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 0 || res.Components != 0 {
		t.Errorf("empty graph result %+v", res)
	}
}

func TestSpectralOrderSingletonAndPairComponents(t *testing.T) {
	// Graph: isolated vertex 0, pair (1,2), triangle (3,4,5).
	g := graph.New(6)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 3, 4, 1)
	mustAdd(t, g, 4, 5, 1)
	mustAdd(t, g, 3, 5, 1)
	res, err := SpectralOrder(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 3 {
		t.Fatalf("components = %d, want 3", res.Components)
	}
	checkPermutation(t, res.Order, 6)
	// Component ranges must be contiguous: {0}, {1,2}, {3,4,5}.
	if res.Order[0] != 0 {
		t.Errorf("singleton not first: %v", res.Order)
	}
	if !(sameSet(res.Order[1:3], []int{1, 2}) && sameSet(res.Order[3:], []int{3, 4, 5})) {
		t.Errorf("components interleaved: %v", res.Order)
	}
	// K₂ λ₂ = 2, K₃ λ₂ = 3.
	if res.Lambda2[1] != 2 {
		t.Errorf("pair λ₂ = %v, want 2", res.Lambda2[1])
	}
	if math.Abs(res.Lambda2[2]-3) > 1e-7 {
		t.Errorf("triangle λ₂ = %v, want 3", res.Lambda2[2])
	}
}

func TestSpectralOrderAffinityEdgePullsPointsTogether(t *testing.T) {
	// Paper §4: adding an edge (or weight) between p and q forces them
	// nearby in the 1-D order. Compare the rank gap of the endpoints of a
	// long path with and without a strong affinity edge.
	const n = 30
	base := graph.Path(n)
	resBase, err := SpectralOrder(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gapBase := absInt(resBase.Rank[0] - resBase.Rank[n-1])

	withAff := graph.Path(n)
	mustAdd(t, withAff, 0, n-1, 50)
	resAff, err := SpectralOrder(withAff, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gapAff := absInt(resAff.Rank[0] - resAff.Rank[n-1])
	if gapAff >= gapBase {
		t.Errorf("affinity edge did not reduce rank gap: base %d, with affinity %d", gapBase, gapAff)
	}
}

func TestSpectralOrderConnectivityVariants(t *testing.T) {
	// Paper Figure 4: 4-connectivity and 8-connectivity give (possibly)
	// different spectral orders; both must be valid permutations and both
	// λ₂ values positive.
	grid := graph.MustGrid(4, 4)
	res4, err := SpectralOrder(graph.GridGraph(grid, graph.Orthogonal), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res8, err := SpectralOrder(graph.GridGraph(grid, graph.Diagonal), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, res4.Order, 16)
	checkPermutation(t, res8.Order, 16)
	if res4.Lambda2[0] <= 0 || res8.Lambda2[0] <= 0 {
		t.Error("λ₂ not positive")
	}
	// Denser connectivity means higher algebraic connectivity.
	if res8.Lambda2[0] <= res4.Lambda2[0] {
		t.Errorf("8-conn λ₂ %v should exceed 4-conn λ₂ %v", res8.Lambda2[0], res4.Lambda2[0])
	}
}

func TestSpectralOrderDeterministic(t *testing.T) {
	g := graph.GridGraph(graph.MustGrid(6, 6), graph.Orthogonal)
	a, err := SpectralOrder(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpectralOrder(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatal("non-deterministic order")
		}
	}
}

func TestSpectralOrderLargeGridBlockSolver(t *testing.T) {
	// Force the iterative production path (the block solver) on a grid
	// large enough to skip the dense cutoff.
	g := graph.GridGraph(graph.MustGrid(20, 20), graph.Orthogonal)
	res, err := SpectralOrder(g, Options{Solver: eigen.Options{Method: eigen.MethodExact, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, res.Order, 400)
	want := 4 * math.Pow(math.Sin(math.Pi/40), 2)
	if math.Abs(res.Lambda2[0]-want) > 1e-6 {
		t.Errorf("20x20 λ₂ = %v, want %v", res.Lambda2[0], want)
	}
}

func TestCostFunctionsValidate(t *testing.T) {
	g := graph.Path(3)
	if _, err := ArrangementCost(g, []float64{1}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := LinearArrangementCost(g, []int{1}); err == nil {
		t.Error("short rank accepted")
	}
	c, err := ArrangementCost(g, []float64{0, 1, 3})
	if err != nil || c != 1+4 {
		t.Errorf("ArrangementCost = %v err %v", c, err)
	}
	l, err := LinearArrangementCost(g, []int{0, 1, 3})
	if err != nil || l != 1+2 {
		t.Errorf("LinearArrangementCost = %v err %v", l, err)
	}
}

func TestBisectPath(t *testing.T) {
	left, right, err := Bisect(graph.Path(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 5 || len(right) != 5 {
		t.Fatalf("halves %v | %v", left, right)
	}
	// The spectral bisection of a path cuts it in the middle.
	lo, hi := left, right
	if lo[0] != 0 {
		lo, hi = right, left
	}
	for i := 0; i < 5; i++ {
		if lo[i] != i || hi[i] != i+5 {
			t.Fatalf("bisection not contiguous: %v | %v", left, right)
		}
	}
}

func TestBisectGridCutsAcross(t *testing.T) {
	// Spectral bisection of an even grid yields two connected halves of
	// equal size (the median-cut optimality result the paper cites).
	grid := graph.MustGrid(6, 6)
	g := graph.GridGraph(grid, graph.Orthogonal)
	left, right, err := Bisect(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 18 || len(right) != 18 {
		t.Fatalf("halves sized %d, %d", len(left), len(right))
	}
	for _, half := range [][]int{left, right} {
		sub, _, err := g.Subgraph(half)
		if err != nil {
			t.Fatal(err)
		}
		if !sub.IsConnected() {
			t.Errorf("bisection half %v not connected", half)
		}
	}
}

// Property: for random connected graphs the spectral order is a permutation
// and the Fiedler assignment is a unit vector ⊥ ones with cost λ₂.
func TestSpectralOrderInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := graph.Path(n) // ensure connectivity, then add chords
		for k := 0; k < n/2; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = g.AddEdge(u, v, 0.5+2*rng.Float64())
			}
		}
		res, err := SpectralOrder(g, Options{Solver: eigen.Options{Seed: seed}})
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, v := range res.Order {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		for v, r := range res.Rank {
			if res.Order[r] != v {
				return false
			}
		}
		cost, _ := ArrangementCost(g, res.Fiedler)
		return math.Abs(cost-res.Lambda2[0]) < 1e-5*(1+res.Lambda2[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func checkPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order length %d, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[v] = true
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func mustAdd(t *testing.T, g *graph.Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}
