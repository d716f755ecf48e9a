package core

import (
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// DegeneracyPolicy selects how SpectralOrder resolves a degenerate λ₂
// eigenspace. On symmetric point sets — every hypercubic grid, including
// the paper's own 3x3 example — λ₂ has multiplicity > 1 and *every* unit
// vector of the eigenspace satisfies the paper's Theorem 1 equally well,
// yet the induced orders differ wildly: an axis-aligned eigenvector
// degenerates to a Sweep-like order that is maximally unfair between
// dimensions, while a mixed vector (like the one the paper prints in
// Figure 3d) treats all dimensions alike.
type DegeneracyPolicy int

const (
	// DegeneracyBalanced (default) picks, within the λ₂ eigenspace, the
	// unit vector minimizing the quartic edge objective
	// Σ_{(u,v)∈E} w·(x_u−x_v)⁴. All eigenspace vectors share the same
	// quadratic cost λ₂, so the quartic term is the natural tie-breaker:
	// it spreads the edge differences evenly over the edges, which on
	// grids selects the diagonal mix of the axis eigenvectors and restores
	// the fairness the paper reports (Figure 5b). The choice is
	// deterministic and basis-independent.
	DegeneracyBalanced DegeneracyPolicy = iota
	// DegeneracyRaw keeps whatever single eigenvector the solver returns —
	// the literal reading of the paper's Figure 2. Exposed for the
	// ablation benchmarks.
	DegeneracyRaw
)

// resolveFiedler returns the Fiedler value and the eigenspace-resolved
// assignment vector for a connected graph, honoring the policy. One block
// solve returns λ₂ with an orthonormal basis of its cluster (eigenvalues
// within the solver's degeneracy tolerance of λ₂); the balanced policy
// mixes a cluster of two or more members with the quartic minimizer, and
// DegeneracyRaw keeps the first Ritz vector.
func resolveFiedler(g *graph.Graph, opt Options) (float64, []float64, error) {
	fr, err := eigen.Fiedler(g, opt.Solver)
	if err != nil {
		return 0, nil, err
	}
	if opt.Degeneracy == DegeneracyRaw || len(fr.Space) <= 1 {
		return fr.Value, fr.Vector, nil
	}
	return fr.Value, minimizeQuartic(g, fr.Space, opt.Solver.Seed), nil
}

// minimizeQuartic finds the unit eigenspace vector minimizing the quartic
// edge objective Σ w·(x_u − x_v)⁴ through the shared basis-independent
// engine (see quartic.go). m is tiny (≤ 8), so each evaluation is O(|E|·m).
func minimizeQuartic(g *graph.Graph, basis [][]float64, seed int64) []float64 {
	return MixBalanced(newEdgeMixSpace(g, basis), seed)
}
