package eigen

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// edgeGraph builds an unweighted graph from an edge list.
func edgeGraph(t testing.TB, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for _, e := range edges {
		if err := g.AddUnitEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func pathEdges(n int) [][2]int {
	e := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		e = append(e, [2]int{i, i + 1})
	}
	return e
}

func cycleEdges(n int) [][2]int {
	e := pathEdges(n)
	return append(e, [2]int{n - 1, 0})
}

func completeEdges(n int) [][2]int {
	var e [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]int{i, j})
		}
	}
	return e
}

func starEdges(n int) [][2]int {
	var e [][2]int
	for i := 1; i < n; i++ {
		e = append(e, [2]int{0, i})
	}
	return e
}

// gridGraph returns the orthogonal grid graph with the given side lengths.
func gridGraph(dims ...int) *graph.Graph {
	return graph.GridGraph(graph.MustGrid(dims...), graph.Orthogonal)
}

// pathEigenvalue is the k-th eigenvalue 2(1 − cos(kπ/n)) of the n-vertex
// path Laplacian.
func pathEigenvalue(n, k int) float64 {
	return 2 * (1 - math.Cos(float64(k)*math.Pi/float64(n)))
}

func TestFiedlerClosedFormsAllMethods(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"path8", edgeGraph(t, 8, pathEdges(8)), pathEigenvalue(8, 1)},
		{"path25", edgeGraph(t, 25, pathEdges(25)), pathEigenvalue(25, 1)},
		{"cycle12", edgeGraph(t, 12, cycleEdges(12)), 2 - 2*math.Cos(2*math.Pi/12)},
		{"complete10", edgeGraph(t, 10, completeEdges(10)), 10},
		{"star9", edgeGraph(t, 9, starEdges(9)), 1},
		{"grid5x5", gridGraph(5, 5), pathEigenvalue(5, 1)},
		{"grid7x7", gridGraph(7, 7), pathEigenvalue(7, 1)},
		{"grid24x24", gridGraph(24, 24), pathEigenvalue(24, 1)},
	}
	for _, tc := range cases {
		for _, m := range []Method{MethodDense, MethodExact} {
			if m == MethodDense && tc.g.N() > 100 {
				continue
			}
			t.Run(tc.name+"/"+m.String(), func(t *testing.T) {
				res, err := Fiedler(tc.g, Options{Method: m, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Value-tc.want) > 1e-6*(1+tc.want) {
					t.Errorf("λ₂ = %.10f, want %.10f", res.Value, tc.want)
				}
				checkFiedlerInvariants(t, tc.g, res)
			})
		}
	}
}

// checkFiedlerInvariants verifies the properties any valid Fiedler result
// must satisfy, independent of eigenspace degeneracy: an orthonormal space
// led by Vector, orthogonal to ones, with small residuals and Rayleigh
// quotients equal to the eigenvalue.
func checkFiedlerInvariants(t *testing.T, g *graph.Graph, res Result) {
	t.Helper()
	n := g.N()
	lap := g.Laplacian()
	if len(res.Space) == 0 || &res.Space[0][0] != &res.Vector[0] {
		t.Fatalf("Space does not start with Vector")
	}
	checkOrthonormal(t, res.Space, 1e-8)
	scale := normInf(lap)
	for j, v := range res.Space {
		if d := la.Dot(v, la.Ones(n)); math.Abs(d) > 1e-6*math.Sqrt(float64(n)) {
			t.Errorf("space[%d] not ⊥ ones: %v", j, d)
		}
		y := make([]float64, n)
		lap.MulVec(y, v)
		rq := la.Dot(v, y)
		if math.Abs(rq-res.Value) > 1e-6*(1+math.Abs(res.Value)) {
			t.Errorf("space[%d]: Rayleigh quotient %v != λ %v", j, rq, res.Value)
		}
		la.Axpy(-rq, v, y)
		if r := la.Norm2(y); r > 1e-6*scale {
			t.Errorf("space[%d]: residual %v too large (scale %v)", j, r, scale)
		}
	}
}

func TestFiedlerPathVectorIsMonotone(t *testing.T) {
	// For a path graph the Fiedler vector is cos(kπ(i+1/2)/n) with k=1 —
	// strictly monotone — so the spectral order must be the path order
	// (possibly reversed). λ₂ is simple here, so this is deterministic.
	const n = 16
	g := edgeGraph(t, n, pathEdges(n))
	for _, m := range []Method{MethodDense, MethodExact} {
		res, err := Fiedler(g, Options{Method: m, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		inc, dec := true, true
		for i := 0; i+1 < n; i++ {
			if res.Vector[i+1] <= res.Vector[i] {
				inc = false
			}
			if res.Vector[i+1] >= res.Vector[i] {
				dec = false
			}
		}
		if !inc && !dec {
			t.Errorf("%v: path Fiedler vector not monotone: %v", m, res.Vector)
		}
	}
}

func TestFiedlerDeterministicForFixedSeed(t *testing.T) {
	g := gridGraph(18, 14)
	a, err := Fiedler(g, Options{Method: MethodExact, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fiedler(g, Options{Method: MethodExact, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Vector {
		if a.Vector[i] != b.Vector[i] {
			t.Fatal("same seed produced different Fiedler vectors")
		}
	}
}

func TestFiedlerErrors(t *testing.T) {
	for _, m := range []Method{MethodDense, MethodExact} {
		if _, err := Fiedler(graph.New(0), Options{Method: m}); err == nil {
			t.Errorf("%v: empty graph accepted", m)
		}
		if _, err := Fiedler(graph.New(1), Options{Method: m}); err == nil {
			t.Errorf("%v: single vertex accepted", m)
		}
	}
}

func TestFiedlerDisconnectedGraphFailsCleanly(t *testing.T) {
	// Two disjoint edges, and two disjoint grids above the dense cutoff:
	// the Laplacian has a 2-dimensional null space, so deflating only the
	// global ones vector leaves λ₂ = 0. The block solver must fail with an
	// error, not hang or return junk.
	two := gridGraph(12, 12)
	big := graph.New(2 * two.N())
	two.Edges(func(u, v int, w float64) {
		for _, off := range []int{0, two.N()} {
			if err := big.AddEdge(u+off, v+off, w); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, g := range []*graph.Graph{edgeGraph(t, 4, [][2]int{{0, 1}, {2, 3}}), big} {
		if _, err := Fiedler(g, Options{Method: MethodExact, Seed: 1, MaxIter: 5}); err == nil {
			t.Errorf("%d vertices: disconnected graph accepted", g.N())
		}
	}
}

func TestFiedlerGridDegenerateEigenvalueStillOptimal(t *testing.T) {
	// On an m x m grid λ₂ has multiplicity 2; any unit combination of the
	// two eigenvectors is optimal, and both solvers return the whole
	// eigenspace. Verify the invariants, the value and the multiplicity.
	for _, side := range []int{6, 30} {
		g := gridGraph(side, side)
		want := pathEigenvalue(side, 1)
		for _, m := range []Method{MethodDense, MethodExact} {
			if m == MethodDense && side > 10 {
				continue
			}
			res, err := Fiedler(g, Options{Method: m, Seed: 11})
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if math.Abs(res.Value-want) > 1e-6 {
				t.Errorf("%d² %v: λ₂ = %v, want %v", side, m, res.Value, want)
			}
			if len(res.Space) != 2 {
				t.Errorf("%d² %v: eigenspace dimension %d, want 2", side, m, len(res.Space))
			}
			checkFiedlerInvariants(t, g, res)
		}
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodAuto: "auto", MethodDense: "dense-jacobi", MethodExact: "exact",
		Method(99): "method(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestErrNoConvergenceWrapped(t *testing.T) {
	// A one-iteration budget with an unreachable tolerance must report
	// ErrNoConvergence in its chain.
	_, err := Fiedler(gridGraph(20, 20), Options{Method: MethodExact, MaxIter: 1, Tol: 1e-15, Seed: 1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("error %v does not wrap ErrNoConvergence", err)
	}
	if err != nil && !strings.Contains(err.Error(), "after 1 iterations") {
		t.Errorf("error %q does not name the budget", err)
	}
}

func TestCanonicalizeSign(t *testing.T) {
	v := [][]float64{{0.1, -0.9, 0.2}, {0.5, 0.4, 0.0}}
	canonicalizeSign(v)
	if v[0][1] != 0.9 {
		t.Errorf("sign not flipped: %v", v[0])
	}
	if v[1][0] != 0.5 {
		t.Errorf("sign flipped unnecessarily: %v", v[1])
	}
}
