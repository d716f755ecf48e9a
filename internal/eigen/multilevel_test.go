package eigen

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// These tests drive the block solver through graphs large enough for a
// several-level heavy-edge hierarchy: the warm start and the V-cycle
// preconditioner both run over it.

// gridLambda2 is the closed-form algebraic connectivity of an r x c grid
// graph under 4-connectivity: the smallest nonzero path eigenvalue over the
// two axes, 2(1 − cos(π/side)) for the longer side.
func gridLambda2(r, c int) float64 {
	return pathEigenvalue(max(r, c), 1)
}

// pathFiedler is the closed-form unit Fiedler vector of the n-vertex path,
// cos(π(i+1/2)/n), sign-canonicalized like the solvers' output.
func pathFiedler(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Cos(math.Pi * (float64(i) + 0.5) / float64(n))
	}
	la.Normalize(v)
	canonicalizeSign([][]float64{v})
	return v
}

func TestMultilevelFiedlerMatchesClosedFormOnGrids(t *testing.T) {
	cases := []struct{ r, c, mult int }{
		{40, 40, 2},   // square: degenerate λ₂, the whole eigenspace comes back
		{96, 64, 1},   // rectangular: simple λ₂
		{128, 128, 2}, // large enough for a several-level hierarchy
	}
	for _, tc := range cases {
		g := gridGraph(tc.r, tc.c)
		res, err := Fiedler(g, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.r, tc.c, err)
		}
		want := gridLambda2(tc.r, tc.c)
		if rel := math.Abs(res.Value-want) / want; rel > 1e-8 {
			t.Errorf("%dx%d: λ₂ = %.12g, closed form %.12g (rel err %.3g)", tc.r, tc.c, res.Value, want, rel)
		}
		if res.Method != MethodExact {
			t.Errorf("%dx%d: method %v", tc.r, tc.c, res.Method)
		}
		if len(res.Space) != tc.mult {
			t.Errorf("%dx%d: eigenspace dimension %d, want %d", tc.r, tc.c, len(res.Space), tc.mult)
		}
		checkFiedlerInvariants(t, g, res)
	}
}

func TestMultilevelFiedlerMatchesExactOnPath(t *testing.T) {
	// Non-degenerate spectrum: the block solver must find the closed-form
	// eigenvector itself (up to sign, which both canonicalize).
	const n = 600
	g := edgeGraph(t, n, pathEdges(n))
	res, err := Fiedler(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Value-pathEigenvalue(n, 1)) / res.Value; rel > 1e-6 {
		t.Errorf("λ₂ %.10g vs closed form %.10g", res.Value, pathEigenvalue(n, 1))
	}
	if d := math.Abs(la.Dot(res.Vector, pathFiedler(n))); d < 1-1e-6 {
		t.Errorf("|<block, closed form>| = %v, want ~1", d)
	}
}

// arrangementCost is Σ w·|rank_u − rank_v| for the order induced by x,
// with x rounded to multiples of 1e-7 first so that entries equal up to
// solver noise tie and fall back to id order, as the snapped tie groups of
// internal/core do.
func arrangementCost(g *graph.Graph, x []float64) float64 {
	n := g.N()
	x = append([]float64(nil), x...)
	for i, v := range x {
		x[i] = math.Round(v * 1e7)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if x[order[a]] != x[order[b]] {
			return x[order[a]] < x[order[b]]
		}
		return order[a] < order[b]
	})
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	var cost float64
	g.Edges(func(u, v int, w float64) {
		d := rank[u] - rank[v]
		if d < 0 {
			d = -d
		}
		cost += w * float64(d)
	})
	return cost
}

func TestMultilevelOrderCostComparableToExact(t *testing.T) {
	// The induced linear order must be as good (in the discrete minimum-
	// linear-arrangement objective) as the exact eigenvector's, not just
	// the eigenvalue. A rectangular grid keeps λ₂ simple; its exact
	// Fiedler vector is the path vector along the long (row) axis.
	const rows, cols = 96, 64
	g := gridGraph(rows, cols)
	res, err := Fiedler(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := pathFiedler(rows)
	exact := make([]float64, rows*cols)
	for v := range exact {
		exact[v] = path[v/cols]
	}
	blockCost, exactCost := arrangementCost(g, res.Vector), arrangementCost(g, exact)
	if blockCost > 1.05*exactCost {
		t.Errorf("block arrangement cost %.0f vs exact %.0f (> 5%% worse)", blockCost, exactCost)
	}
}

func TestMultilevelFiedlerParallelismConsistent(t *testing.T) {
	// Parallelism must not change a single bit: the SpMV and the block
	// combinations are elementwise, and every inner product sums fixed
	// blocks in a fixed order at every worker count. The grid is above
	// la's serial cutoff (12288 vertices) so the Parallelism=4 run takes
	// the goroutine-parallel kernels.
	g := gridGraph(128, 96)
	serial, err := Fiedler(g, Options{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fiedler(g, Options{Seed: 9, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Value != par.Value || serial.Iterations != par.Iterations {
		t.Errorf("λ₂ %.17g (%d iterations) serial vs %.17g (%d) parallel",
			serial.Value, serial.Iterations, par.Value, par.Iterations)
	}
	for i := range serial.Vector {
		if serial.Vector[i] != par.Vector[i] {
			t.Fatalf("vectors differ at %d: %v vs %v", i, serial.Vector[i], par.Vector[i])
		}
	}
	checkFiedlerInvariants(t, g, par)
}

func TestMultilevelFiedlerSmallGraphFallsBackToExact(t *testing.T) {
	// At or below the dense cutoff MethodAuto runs the dense solver.
	g := gridGraph(5, 5)
	res, err := Fiedler(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := gridLambda2(5, 5)
	if math.Abs(res.Value-want) > 1e-8 {
		t.Errorf("λ₂ = %.10g, want %.10g", res.Value, want)
	}
	if res.Method != MethodDense {
		t.Errorf("method %v, want dense fallback", res.Method)
	}
}

func TestMultilevelFiedlerRejectsDegenerateInputs(t *testing.T) {
	if _, err := Fiedler(graph.New(0), Options{Method: MethodExact}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Fiedler(graph.New(1), Options{Method: MethodExact}); err == nil {
		t.Error("single vertex accepted")
	}
}

func TestResolveMethodSelection(t *testing.T) {
	cases := []struct {
		opt  Options
		n    int
		want Method
	}{
		{Options{}, 50, MethodDense},
		{Options{}, 96, MethodDense},
		{Options{}, 97, MethodExact},
		{Options{}, 10000, MethodExact},
		{Options{DenseCutoff: 200}, 150, MethodDense},
		{Options{Method: MethodExact}, 10, MethodExact},
		{Options{Method: MethodDense}, 500, MethodDense},
	}
	for i, tc := range cases {
		if got := tc.opt.Resolve(tc.n); got != tc.want {
			t.Errorf("case %d: Resolve(%d) = %v, want %v", i, tc.n, got, tc.want)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for s, want := range map[string]Method{
		"auto": MethodAuto, "": MethodAuto, "exact": MethodExact,
		"dense": MethodDense, "dense-jacobi": MethodDense, "jacobi": MethodDense,
	} {
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// Unknown spellings, the names of removed solvers among them, fail
	// with an error naming the accepted ones.
	for _, s := range []string{"nope", "lanczos", "inverse-power", "multilevel"} {
		_, err := ParseMethod(s)
		if err == nil || !strings.Contains(err.Error(), "auto|exact|dense") {
			t.Errorf("ParseMethod(%q) error = %v, want one naming auto|exact|dense", s, err)
		}
	}
	for _, m := range []Method{MethodAuto, MethodDense, MethodExact} {
		back, err := ParseMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v: got %v, %v", m, back, err)
		}
	}
}
