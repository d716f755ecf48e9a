package eigen

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// fuzzGraph builds a small connected graph from fuzz inputs: a path, a
// cycle, a rectangular or square grid, a 2-D disk or a 3-D ball of lattice
// points (λ₂ multiplicity 1, 2, 1–2, 2, 2 and 3 with unit weights), with
// random positive edge weights when weighted is set. Every shape stays
// small enough for the dense Jacobi oracle.
func fuzzGraph(kind, a, b uint8, weighted bool, seed int64) *graph.Graph {
	var g *graph.Graph
	switch kind % 6 {
	case 0:
		g = graph.Path(3 + int(a)%120)
	case 1:
		g = graph.Cycle(3 + int(a)%120)
	case 2:
		g = gridGraph(2+int(a)%11, 2+int(b)%11)
	case 3:
		side := 2 + int(a)%11
		g = gridGraph(side, side)
	case 4:
		g = mustPointGraph(ballPoints(2, 2+int(a)%6))
	default:
		g = mustPointGraph(ballPoints(3, 2+int(a)%2))
	}
	if !weighted {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	w := graph.New(g.N())
	g.Edges(func(u, v int, _ float64) {
		if err := w.AddEdge(u, v, 0.25+2*rng.Float64()); err != nil {
			panic(err)
		}
	})
	return w
}

// ballPoints returns the lattice points of the d-dimensional ball
// |x|² < r², shifted to non-negative coordinates.
func ballPoints(d, r int) [][]int {
	var pts [][]int
	p := make([]int, d)
	var rec func(i, sq int)
	rec = func(i, sq int) {
		if i == d {
			if sq < r*r {
				q := make([]int, d)
				for j, v := range p {
					q[j] = v + r
				}
				pts = append(pts, q)
			}
			return
		}
		for x := -r; x <= r; x++ {
			p[i] = x
			rec(i+1, sq+x*x)
		}
	}
	rec(0, 0)
	return pts
}

func mustPointGraph(pts [][]int) *graph.Graph {
	g, err := graph.PointGraph(pts)
	if err != nil {
		panic(err)
	}
	return g
}

// principalSines returns the sines of the principal angles between the
// spans of two orthonormal bases of equal size.
func principalSines(u, v [][]float64) []float64 {
	c := len(u)
	m := la.NewSym(c)
	for i := 0; i < c; i++ {
		for j := i; j < c; j++ {
			// (VᵀU)ᵀ(VᵀU): its eigenvalues are the squared cosines.
			var s float64
			for k := range v {
				s += la.Dot(v[k], u[i]) * la.Dot(v[k], u[j])
			}
			m.Set(i, j, s)
		}
	}
	cos2, _, err := Jacobi(m, 0)
	if err != nil {
		panic(err)
	}
	sines := make([]float64, c)
	for i, c2 := range cos2 {
		sines[i] = math.Sqrt(math.Max(0, 1-c2))
	}
	return sines
}

// FuzzBlockFiedler checks the block solver against the dense Jacobi
// oracle on small connected graphs, with coarsening forced down to a few
// vertices so the hierarchy, the warm start and the V-cycle all run: the
// λ₂ cluster has the oracle's size and eigenvalues (to 1e-8·||L||), spans
// the oracle's eigenspace (every principal-angle sine ≤ 1e-6), and the
// result is bit-identical across runs with one seed and across
// Parallelism 1 and 2.
func FuzzBlockFiedler(f *testing.F) {
	for kind := uint8(0); kind < 6; kind++ {
		f.Add(kind, uint8(37), uint8(5), false, int64(1), uint8(8))
		f.Add(kind, uint8(90), uint8(8), true, int64(7), uint8(16))
	}
	f.Add(uint8(3), uint8(9), uint8(0), false, int64(3), uint8(4))  // 11x11 grid
	f.Add(uint8(4), uint8(5), uint8(0), false, int64(5), uint8(12)) // disk r=7
	f.Fuzz(func(t *testing.T, kind, a, b uint8, weighted bool, seed int64, cutoff uint8) {
		g := fuzzGraph(kind, a, b, weighted, seed)
		lap := g.Laplacian()
		scale := normInf(lap)
		opt := Options{Method: MethodExact, Tol: 1e-12, Seed: seed, DenseCutoff: 2 + int(cutoff)%30, Parallelism: 1}
		res, err := Fiedler(g, opt)
		if err != nil {
			t.Fatalf("%d vertices: %v", g.N(), err)
		}
		vals, vecs, err := Jacobi(la.SymFromCSR(lap), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := clusterSize(vals[1:])
		bound := vals[1] + degeneracyRelTol*(1+math.Abs(vals[1]))
		if 1+c < len(vals) && math.Abs(vals[1+c]-bound) < 1e-9*scale {
			t.Skip("an eigenvalue sits on the cluster bound; the cluster size is not well defined")
		}
		if len(res.Space) != c {
			t.Fatalf("%d vertices: cluster of %d, oracle %d (λ = %v)", g.N(), len(res.Space), c, vals[1:min(len(vals), 2+c)])
		}
		if d := math.Abs(res.Value - vals[1]); d > 1e-8*scale {
			t.Errorf("λ₂ = %.15g, oracle %.15g", res.Value, vals[1])
		}
		y := make([]float64, g.N())
		for j, v := range res.Space {
			lap.MulVec(y, v)
			if d := math.Abs(la.Dot(v, y) - vals[1+j]); d > 1e-8*scale {
				t.Errorf("cluster member %d: Rayleigh quotient %.15g, oracle %.15g", j, la.Dot(v, y), vals[1+j])
			}
		}
		// Davis–Kahan: the subspace is pinned only as well as the gap to
		// the rest of the spectrum allows; 1e-5·||L|| leaves the 1e-12
		// residual target a 1e-6 bound with room to spare.
		if 1+c >= len(vals) || vals[1+c]-vals[c] > 1e-5*scale {
			for i, s := range principalSines(res.Space, vecs[1:1+c]) {
				if s > 1e-6 {
					t.Errorf("principal angle %d: sine %.3g", i, s)
				}
			}
		}
		for _, o := range []Options{opt, {Method: MethodExact, Tol: 1e-12, Seed: seed, DenseCutoff: opt.DenseCutoff, Parallelism: 2}} {
			again, err := Fiedler(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if again.Value != res.Value || len(again.Space) != len(res.Space) {
				t.Fatalf("parallelism %d: λ₂ %v, %d members; first run %v, %d", o.Parallelism, again.Value, len(again.Space), res.Value, len(res.Space))
			}
			for j := range res.Space {
				for i := range res.Space[j] {
					if again.Space[j][i] != res.Space[j][i] {
						t.Fatalf("parallelism %d: member %d differs at %d", o.Parallelism, j, i)
					}
				}
			}
		}
	})
}

func TestBlockFiedlerWidensForTripleDegeneracy(t *testing.T) {
	// A cube's λ₂ has multiplicity 3: the first block (two members plus a
	// guard) fills with the cluster and must widen until a guard column
	// separates, returning all three members.
	g := gridGraph(9, 9, 9)
	res, err := Fiedler(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Space) != 3 {
		t.Fatalf("eigenspace dimension %d, want 3", len(res.Space))
	}
	if want := pathEigenvalue(9, 1); math.Abs(res.Value-want) > 1e-9 {
		t.Errorf("λ₂ = %.12g, want %.12g", res.Value, want)
	}
	checkFiedlerInvariants(t, g, res)
}

func TestBlockFiedlerStalledCoarsening(t *testing.T) {
	// A star's leaves cannot pair, so heavy-edge matching stalls far above
	// the dense cutoff: the coarsest level must be solved by the block
	// solver itself (random start, Jacobi preconditioner), not densely.
	// The star's λ₂ = 1 has multiplicity n−2, capped at maxMultiplicity.
	g := edgeGraph(t, 3001, starEdges(3001))
	res, err := Fiedler(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1) > 1e-9 || len(res.Space) != maxMultiplicity {
		t.Errorf("λ₂ = %.12g with %d members, want 1 with %d", res.Value, len(res.Space), maxMultiplicity)
	}
	checkFiedlerInvariants(t, g, res)
}
