package eigen

import (
	"errors"
	"fmt"
	"math"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// Method selects the eigensolver Fiedler runs.
type Method int

const (
	// MethodAuto picks MethodDense at or below Options.DenseCutoff
	// vertices and the block solver (MethodExact) above.
	MethodAuto Method = iota
	// MethodDense densifies the Laplacian and runs the Jacobi solver: the
	// reference oracle, for n up to a few hundred.
	MethodDense
	// MethodExact forces the block solver at every size. Above the dense
	// cutoff it is what MethodAuto runs; callers set it to opt out of
	// paths that skip the solve, such as the closed-form grid order.
	MethodExact
)

// String names the method for logs and errors.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodDense:
		return "dense-jacobi"
	case MethodExact:
		return "exact"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod resolves a solver name from flags and configs: "auto",
// "exact" or "dense" (aliases "dense-jacobi", "jacobi").
func ParseMethod(s string) (Method, error) {
	switch s {
	case "auto", "":
		return MethodAuto, nil
	case "exact":
		return MethodExact, nil
	case "dense", "dense-jacobi", "jacobi":
		return MethodDense, nil
	default:
		return MethodAuto, fmt.Errorf("eigen: unknown solver method %q (want auto|exact|dense)", s)
	}
}

// Options tunes Fiedler.
type Options struct {
	// Method selects the solver; MethodAuto by default.
	Method Method
	// Tol is the relative residual target ||L x - θ x|| <= Tol*||L|| that
	// every member of the λ₂ cluster meets on the finest level (the guard
	// column only has to separate from the cluster). Defaults to 1e-9.
	Tol float64
	// MaxIter caps the block iterations on the finest level. 0 picks
	// defaultMaxIter.
	MaxIter int
	// Seed fixes the hierarchy's matching order and the random columns
	// that widen a block. Same seed, same result.
	Seed int64
	// DenseCutoff is the dimension at or below which MethodAuto uses the
	// dense solver, and the size at which coarsening stops. Defaults to
	// 96.
	DenseCutoff int
	// Parallelism sets the goroutine count of the sparse kernels (matrix-
	// vector products, block inner products and combinations): 0 uses all
	// of GOMAXPROCS, 1 is serial, k uses k workers. Every reduction sums
	// fixed-size blocks in a fixed order, so results are bit-identical at
	// every setting; small problems run serially regardless.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = defaultMaxIter
	}
	if o.DenseCutoff <= 0 {
		o.DenseCutoff = 96
	}
	return o
}

// Resolve returns the concrete method these options select for an n-vertex
// problem: MethodDense or MethodExact.
func (o Options) Resolve(n int) Method {
	o = o.withDefaults()
	if o.Method == MethodAuto {
		if n <= o.DenseCutoff {
			return MethodDense
		}
		return MethodExact
	}
	return o.Method
}

// Result is the outcome of a Fiedler computation.
type Result struct {
	// Value is λ₂, the algebraic connectivity.
	Value float64
	// Vector is the first Ritz vector: a unit λ₂ eigenvector orthogonal to
	// the all-ones vector, with its largest-magnitude entry made positive.
	Vector []float64
	// Space is an orthonormal basis of the λ₂ cluster — the eigenvectors
	// whose eigenvalues lie within degeneracyRelTol of λ₂, at most
	// maxMultiplicity of them. Space[0] is Vector; a simple λ₂ gives one
	// vector.
	Space [][]float64
	// Iterations counts block iterations summed over the hierarchy levels
	// (1 for the dense solver).
	Iterations int
	// Method is the solver that actually ran.
	Method Method
	// Residual is the largest ||L x - θ x|| over Space.
	Residual float64
}

// degeneracyRelTol is the relative eigenvalue gap below which two
// eigenvalues count as one degenerate cluster.
const degeneracyRelTol = 1e-6

// maxMultiplicity caps the λ₂ cluster; hypercubic grids in d dimensions
// have multiplicity d, so 8 covers every practical case.
const maxMultiplicity = 8

// clusterSize counts the leading eigenvalues of vals (ascending, vals[0] =
// λ₂) that cluster with λ₂, up to maxMultiplicity.
func clusterSize(vals []float64) int {
	c := 1
	for c < len(vals) && c < maxMultiplicity &&
		vals[c] <= vals[0]+degeneracyRelTol*(1+math.Abs(vals[0])) {
		c++
	}
	return c
}

// Fiedler computes λ₂ and the λ₂ eigenspace of a connected graph's
// Laplacian. The all-ones null vector is deflated internally; callers split
// disconnected graphs into components first (internal/core does). The block
// solver reports a disconnected graph as an error when the hierarchy
// reaches the dense cutoff, which it does unless matching stalls.
func Fiedler(g *graph.Graph, opt Options) (Result, error) {
	opt = opt.withDefaults()
	switch n := g.N(); {
	case n == 0:
		return Result{}, errors.New("eigen: empty graph")
	case n == 1:
		return Result{}, errors.New("eigen: Fiedler undefined for a single vertex")
	case opt.Resolve(n) == MethodDense:
		return fiedlerDense(g.Laplacian())
	}
	return blockFiedler(g, opt)
}

func fiedlerDense(lap *la.CSR) (Result, error) {
	n := lap.Rows()
	vals, vecs, err := Jacobi(la.SymFromCSR(lap), 0)
	if err != nil {
		return Result{}, err
	}
	// vals[0] ~ 0 (ones). Orthogonalize the cluster against exact ones to
	// clean the degenerate-at-zero case, then re-normalize.
	space := vecs[1 : 1+clusterSize(vals[1:])]
	for _, v := range space {
		la.OrthogonalizeAgainst(v, la.UnitOnes(n))
		if la.Normalize(v) == 0 {
			return Result{}, errors.New("eigen: dense Fiedler vector vanished (disconnected graph?)")
		}
	}
	canonicalizeSign(space)
	var worst float64
	y := make([]float64, n)
	for j, v := range space {
		lap.MulVec(y, v)
		la.Axpy(-vals[1+j], v, y)
		worst = math.Max(worst, la.Norm2(y))
	}
	return Result{Value: vals[1], Vector: space[0], Space: space, Iterations: 1,
		Method: MethodDense, Residual: worst}, nil
}
