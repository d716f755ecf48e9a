// Package eigen computes the Fiedler eigenspace of a graph Laplacian: λ₂
// and an orthonormal basis of every eigenvector whose eigenvalue clusters
// with it. One iterative solver serves every graph: block LOBPCG that
// deflates the all-ones null vector, warm-starts from the graph's
// heavy-edge hierarchy and is preconditioned by a V-cycle over that same
// hierarchy (block.go). Its block holds the λ₂ cluster plus one guard
// column, so a degenerate λ₂ — every square grid, every disk — comes back
// whole from one solve. Dense cyclic Jacobi (jacobi.go) solves the
// hierarchy's coarsest level and is the small-graph oracle the block
// solver is tested against. The package is stdlib-only and deterministic:
// the same Seed gives the same bits at every Parallelism.
package eigen

import (
	"errors"
	"math"
	"math/rand"

	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// ErrNoConvergence is returned when an eigensolver exceeds its iteration
// budget before meeting its tolerance.
var ErrNoConvergence = errors.New("eigen: no convergence within iteration budget")

// normInf returns the largest absolute row sum of m, an upper bound on the
// spectral norm of a symmetric matrix; residual tolerances scale with it.
func normInf(m *la.CSR) float64 {
	var max float64
	for i := 0; i < m.Rows(); i++ {
		var s float64
		m.RowRange(i, func(_ int, v float64) { s += math.Abs(v) })
		max = math.Max(max, s)
	}
	if max == 0 {
		return 1
	}
	return max
}

// randomUnit returns a random unit vector of length n.
func randomUnit(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if la.Normalize(x) == 0 && n > 0 {
		x[0] = 1
	}
	return x
}

// canonicalizeSign flips each eigenvector so its largest-magnitude entry is
// positive, giving deterministic output across solvers.
func canonicalizeSign(vecs [][]float64) {
	for _, v := range vecs {
		var maxAbs float64
		var sign float64 = 1
		for _, x := range v {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
				if x < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		if sign < 0 {
			la.Scale(-1, v)
		}
	}
}
