package eigen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// Schedule of the block solver.
const (
	// defaultMaxIter caps block iterations on the finest level.
	defaultMaxIter = 1000
	// levelTol and levelIters bound the work on coarse levels, whose
	// block is only the next level's warm start.
	levelTol   = 1e-4
	levelIters = 10
	// dropTol is the fraction of its norm below which a column, projected
	// off the basis columns before it, is dropped (see orthonormalize).
	dropTol = 1e-10
	// omega is the damping of the Jacobi smoother.
	omega = 2.0 / 3
	// overcorrect scales the coarse-level correction of the V-cycle:
	// piecewise-constant prolongation from pairwise aggregates
	// under-corrects smooth error, and 1.4 cut the block iterations by
	// about a third on the 12,849-point disk and the 256² grid.
	overcorrect = 1.4
)

// level is one graph of the hierarchy with its V-cycle state.
type level struct {
	lap     *la.CSR
	invDiag []float64
	ones    []float64
	scale   float64 // ||L||∞, the residual scale
	cmap    []int   // vertex -> vertex of the next coarser level; nil on the coarsest
	r, e, t []float64
}

// blockSolver is LOBPCG over a heavy-edge hierarchy: the coarsest level is
// solved densely, each finer level refines the prolonged block, and the
// hierarchy doubles as the V-cycle preconditioner.
type blockSolver struct {
	levels     []*level
	coarseVals []float64
	coarseVecs [][]float64
	w          int
	rng        *rand.Rand
	iters      int
}

// blockFiedler returns the λ₂ cluster of a connected graph with n >= 2.
func blockFiedler(g *graph.Graph, opt Options) (Result, error) {
	h := graph.BuildHierarchy(g, graph.CoarsenOptions{MinSize: opt.DenseCutoff, Seed: opt.Seed})
	s := &blockSolver{w: opt.Parallelism, rng: rand.New(rand.NewSource(opt.Seed))}
	for i, hg := range h.Graphs {
		lap := hg.Laplacian()
		n := hg.N()
		lv := &level{lap: lap, invDiag: lap.Diagonal(), ones: la.Ones(n), scale: normInf(lap),
			r: make([]float64, n), e: make([]float64, n), t: make([]float64, n)}
		for v, d := range lv.invDiag {
			lv.invDiag[v] = 1 / d
		}
		if i < len(h.Maps) {
			lv.cmap = h.Maps[i]
		}
		s.levels = append(s.levels, lv)
	}
	top := len(s.levels) - 1
	coarse := s.levels[top]
	// First block: room for a doubly degenerate λ₂ (every symmetric 2-D
	// domain) plus a guard column. The coarse spectrum cannot size it
	// better: coarsening splits degenerate eigenvalues by tens of percent.
	n := g.N()
	k := min(3, n-1)
	var x [][]float64
	if nc := coarse.lap.Rows(); nc <= opt.DenseCutoff {
		vals, vecs, err := Jacobi(la.SymFromCSR(coarse.lap), 0)
		if err != nil {
			return Result{}, fmt.Errorf("eigen: coarsest solve (%d vertices): %w", nc, err)
		}
		if vals[1] <= 1e-10*coarse.scale {
			return Result{}, errors.New("eigen: λ₂ = 0, graph is disconnected")
		}
		s.coarseVals, s.coarseVecs = vals, vecs
		for _, v := range vecs[1:min(1+k, nc)] {
			x = append(x, append([]float64(nil), v...))
		}
	}
	// Levels narrower than the block start it with fewer columns; the first
	// level with room fills it with random ones. Matching that stalls above
	// the dense cutoff (a star's leaves cannot pair) leaves the coarsest
	// level to the block solver too, from random columns.
	for l := top; l > 0; l-- {
		if l < top {
			x = s.prolong(l, x)
		}
		for nl := s.levels[l].lap.Rows(); len(x) < min(k, nl-1); {
			x = append(x, randomUnit(s.rng, nl))
		}
		if l < top || s.coarseVecs == nil {
			// A coarse level that misses levelTol still leaves a warm start.
			var err error
			if x, _, _, err = s.lobpcg(l, x, levelTol, levelIters); err != nil && !errors.Is(err, ErrNoConvergence) {
				return Result{}, err
			}
		}
	}
	if top > 0 {
		x = s.prolong(0, x)
	}
	for len(x) < k {
		x = append(x, randomUnit(s.rng, n))
	}

	// Finest level: converge, then widen while the guard joins the cluster.
	for {
		var theta, res []float64
		var err error
		x, theta, res, err = s.lobpcg(0, x, opt.Tol, opt.MaxIter)
		if err != nil {
			return Result{}, err
		}
		c := clusterSize(theta)
		if c < k || k >= maxMultiplicity || k >= n-1 {
			space := x[:c]
			canonicalizeSign(space)
			worst := 0.0
			for _, r := range res[:c] {
				worst = math.Max(worst, r)
			}
			return Result{Value: theta[0], Vector: space[0], Space: space, Iterations: s.iters,
				Method: MethodExact, Residual: worst}, nil
		}
		for k < min(c+1, maxMultiplicity, n-1) {
			x = append(x, randomUnit(s.rng, n))
			k++
		}
	}
}

// prolong lifts a block from level l+1 to level l, piecewise-constantly.
func (s *blockSolver) prolong(l int, coarse [][]float64) [][]float64 {
	cmap := s.levels[l].cmap
	fine := make([][]float64, len(coarse))
	for j, c := range coarse {
		f := make([]float64, len(cmap))
		for v, cv := range cmap {
			f[v] = c[cv]
		}
		fine[j] = f
	}
	return fine
}

// lobpcg refines the block x on level l until every column converges (see
// the test below) or maxIter iterations ran. It returns the Ritz vectors
// (orthonormal, ascending), their Ritz values and residual norms; on an
// exhausted budget it returns them with an ErrNoConvergence error. Each
// iteration is one Rayleigh-Ritz step on span[X, W, P]: the block, its
// preconditioned residuals and its previous update, orthonormalized
// column by column.
func (s *blockSolver) lobpcg(l int, x [][]float64, tol float64, maxIter int) ([][]float64, []float64, []float64, error) {
	lv := s.levels[l]
	n, k := lv.lap.Rows(), len(x)
	alloc := func(m int) [][]float64 {
		b := make([][]float64, m)
		for j := range b {
			b[j] = make([]float64, n)
		}
		return b
	}
	xn, ax, w, p, pn, images := alloc(k), alloc(k), alloc(k), alloc(k), alloc(k), alloc(3*k)
	cols := x
	res := make([]float64, k)
	for it := 0; ; it++ {
		basis, err := s.orthonormalize(lv, cols, k)
		if err != nil {
			return nil, nil, nil, err
		}
		as := images[:len(basis)]
		s.apply(lv, as, basis)
		c, theta, err := rayleighRitz(basis, as, k, s.w)
		if err != nil {
			return nil, nil, nil, err
		}
		la.CombineP(xn, basis, c, s.w)
		la.CombineP(ax, as, c, s.w)
		// P: the new block's component outside the old one.
		la.CombineP(pn, basis[k:], c[k*k:], s.w)
		x, xn, p, pn = xn, x, pn, p

		// Residuals. A cluster column converges at tol; a guard column
		// only has to show an eigenvalue outside the cluster: a loose
		// residual that keeps its Ritz value clear of the cluster bound.
		for j := range x {
			for i, v := range ax[j] {
				w[j][i] = v - theta[j]*x[j][i]
			}
		}
		bound := theta[0] + degeneracyRelTol*(1+math.Abs(theta[0]))
		converged := true
		for j := range res {
			res[j] = la.Norm2(w[j])
			if theta[j] <= bound {
				converged = converged && res[j] <= tol*lv.scale
			} else {
				converged = converged && res[j] <= math.Sqrt(tol)*lv.scale && theta[j]-res[j] > bound
			}
		}
		if converged {
			return x, theta, res, nil
		}
		if it == maxIter {
			return x, theta, res, fmt.Errorf("%w: block residual %.3g after %d iterations (target %.3g)",
				ErrNoConvergence, maxResidual(res), maxIter, tol*lv.scale)
		}
		s.iters++
		for j := range w {
			s.precondition(l, images[j], w[j])
			w[j], images[j] = images[j], w[j]
		}
		cols = append(append(append(cols[:0:0], x...), w...), p...)
		if it == 0 {
			cols = cols[:2*k] // no previous update yet
		}
	}
}

func maxResidual(res []float64) float64 {
	var m float64
	for _, r := range res {
		m = math.Max(m, r)
	}
	return m
}

// orthonormalize deflates the all-ones vector from cols and turns them, in
// order and in place, into an orthonormal basis by classical Gram-Schmidt
// with a second pass. A column left with less than dropTol of its norm adds
// nothing the basis lacks and is dropped; one of the first keep columns (the
// block itself) must not be.
func (s *blockSolver) orthonormalize(lv *level, cols [][]float64, keep int) ([][]float64, error) {
	s.deflate(lv, cols)
	var basis [][]float64
	d := make([]float64, len(cols))
	for j, v := range cols {
		before := la.Norm2(v)
		for pass := 0; pass < 2 && len(basis) > 0; pass++ {
			la.GramP(d[:len(basis)], basis, [][]float64{v}, s.w)
			for i, q := range basis {
				la.AxpyP(-d[i], q, v, s.w)
			}
		}
		after := la.Norm2(v)
		if !(after > dropTol*before) {
			if j < keep {
				return nil, fmt.Errorf("eigen: block of %d columns spans fewer dimensions", keep)
			}
			continue
		}
		la.ScaleP(1/after, v, s.w)
		basis = append(basis, v)
	}
	return basis, nil
}

// rayleighRitz diagonalizes the Laplacian projected on the orthonormal
// basis (images holds L times each column) and returns the m x k
// coefficients (row-major) of the k lowest Ritz vectors with their Ritz
// values.
func rayleighRitz(basis, images [][]float64, k, workers int) ([]float64, []float64, error) {
	m := len(basis)
	proj := make([]float64, m*m)
	la.GramP(proj, basis, images, workers)
	h := la.NewSym(m)
	for a := 0; a < m; a++ {
		for b := a; b < m; b++ {
			// Symmetrize: the projection is symmetric up to rounding.
			h.Set(a, b, (proj[a*m+b]+proj[b*m+a])/2)
		}
	}
	vals, vecs, err := Jacobi(h, 0)
	if err != nil {
		return nil, nil, err
	}
	c := make([]float64, m*k)
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			c[i*k+j] = vecs[j][i]
		}
	}
	return c, vals[:k], nil
}

// deflate removes the all-ones component from every column.
func (s *blockSolver) deflate(lv *level, vs [][]float64) {
	d := make([]float64, len(vs))
	la.GramP(d, vs, [][]float64{lv.ones}, s.w)
	for j, v := range vs {
		mean := d[j] / float64(len(v))
		for i := range v {
			v[i] -= mean
		}
	}
}

// apply sets dst[j] = L src[j].
func (s *blockSolver) apply(lv *level, dst, src [][]float64) {
	for j := range src {
		lv.lap.MulVecP(dst[j], src[j], s.w)
	}
}

// precondition sets e ≈ L⁺ r on level l: one symmetric V-cycle over the
// coarser levels, ending in the exact pseudo-inverse on a densely solved
// coarsest level or in a Jacobi step on one whose matching stalled.
func (s *blockSolver) precondition(l int, e, r []float64) {
	lv := s.levels[l]
	if lv.cmap == nil && s.coarseVecs == nil {
		for i, d := range lv.invDiag {
			e[i] = d * r[i]
		}
		return
	}
	if lv.cmap == nil {
		clear(e)
		for i := 1; i < len(s.coarseVals); i++ {
			la.Axpy(la.Dot(s.coarseVecs[i], r)/s.coarseVals[i], s.coarseVecs[i], e)
		}
		return
	}
	for i, d := range lv.invDiag {
		e[i] = omega * d * r[i]
	}
	lv.lap.MulVecP(lv.t, e, s.w)
	next := s.levels[l+1]
	clear(next.r)
	for v, c := range lv.cmap {
		next.r[c] += r[v] - lv.t[v]
	}
	s.precondition(l+1, next.e, next.r)
	for v, c := range lv.cmap {
		e[v] += overcorrect * next.e[c]
	}
	lv.lap.MulVecP(lv.t, e, s.w)
	for i, d := range lv.invDiag {
		e[i] += omega * d * (r[i] - lv.t[i])
	}
}
