package core

import "slices"

// The spectral order of step 5 is "the order of the assigned values" — but
// assigned values tie. On the paper's own default construction ties are the
// rule, not the exception: the Fiedler vector of a rectangular grid is
// constant on every slab perpendicular to its longest axis, so whole
// hyperplanes of points share one value. A floating-point eigensolver
// renders those ties as noise at the solver's residual scale, which would
// make the induced order an artifact of the solver method rather than of
// the spectrum. OrderByValues defines the order canonically instead:
//
//  1. Snap: values within snapRelTol of each other (relative to the
//     component's value range) form one tie group — wide enough to absorb
//     solver residuals, narrow enough that genuinely distinct spectral
//     values never merge on supported problem sizes.
//  2. Orient: x and −x are the same eigenvector; the order is computed for
//     the orientation whose LAST tie group does not hold the smallest
//     vertex id of the extreme groups, so the order starts at the
//     low-id end of the spectrum regardless of the solver's sign choice.
//  3. Resolve: a tie group larger than one vertex is ordered by the
//     caller's resolver — the paper's recursive tie-breaking (Spectral LPM
//     re-applied to the subgraph induced by the tied vertices). A group
//     that swallows the whole component falls back to id order, which
//     bounds the recursion.
//
// Both the eigensolver path (SpectralOrder) and the closed-form grid engine
// (internal/analytic) order through this one function, which is what makes
// the two paths comparable rank-for-rank.

// snapRelTol is the relative value gap (scaled by the component's value
// range) below which two Fiedler components are one tie group. It must sit
// well above the eigensolver residual (1e-9, amplified by the eigengap) and
// well below the smallest genuine value gap (≳1e-5 of the range for grids
// up to ~1000 per side).
const snapRelTol = 1e-6

// OrderByValues orders ids ascending by their snapped values, resolving
// multi-member tie groups through resolve (members passed in ascending id
// order) and orienting the whole order deterministically. ids must be
// sorted ascending; vals[i] belongs to ids[i]. It reports whether the
// orientation step reversed the value order, so callers keeping the raw
// vector can negate it and preserve the order-ascends-with-value invariant.
func OrderByValues(ids []int, vals []float64, resolve func(group []int) ([]int, error)) (ordered []int, flipped bool, err error) {
	n := len(ids)
	if n <= 1 {
		return append([]int(nil), ids...), false, nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// ids ascend, so index order is id order: it breaks every value tie,
	// the order is total, and a stable sort would buy nothing.
	slices.SortFunc(perm, func(a, b int) int {
		switch va, vb := vals[a], vals[b]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return a - b
	})
	lo, hi := vals[perm[0]], vals[perm[n-1]]
	if hi == lo {
		// A constant assignment carries no order; fall back to id order.
		return append([]int(nil), ids...), false, nil
	}
	tol := snapRelTol * (hi - lo)
	// groups[k] is the half-open [start, end) range of perm holding group k.
	var groups [][2]int
	start := 0
	for i := 1; i < n; i++ {
		if vals[perm[i]]-vals[perm[i-1]] > tol {
			groups = append(groups, [2]int{start, i})
			start = i
		}
	}
	groups = append(groups, [2]int{start, n})
	minID := func(g [2]int) int {
		m := ids[perm[g[0]]]
		for i := g[0] + 1; i < g[1]; i++ {
			if id := ids[perm[i]]; id < m {
				m = id
			}
		}
		return m
	}
	if len(groups) >= 2 && minID(groups[len(groups)-1]) < minID(groups[0]) {
		flipped = true
		for i, j := 0, len(groups)-1; i < j; i, j = i+1, j-1 {
			groups[i], groups[j] = groups[j], groups[i]
		}
	}
	ordered = make([]int, 0, n)
	for _, g := range groups {
		size := g[1] - g[0]
		switch {
		case size == 1:
			ordered = append(ordered, ids[perm[g[0]]])
		case size == n:
			// The whole component snapped into one group (a near-constant
			// assignment): recursion would not terminate, so id order.
			ordered = append(ordered, ids...)
		default:
			members := make([]int, size)
			for i := g[0]; i < g[1]; i++ {
				members[i-g[0]] = ids[perm[i]]
			}
			slices.Sort(members)
			resolved, err := resolve(members)
			if err != nil {
				return nil, false, err
			}
			ordered = append(ordered, resolved...)
		}
	}
	return ordered, flipped, nil
}
