package core

import (
	"math"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// axisMeanGaps returns the mean 1-D rank gap of horizontally and vertically
// adjacent points of a side x side grid (row-major vertex ids) — the
// fairness quantity of the paper's Figure 5b, computed directly so the test
// does not depend on the order/metrics packages (which import core).
func axisMeanGaps(side int, rank []int) (h, v float64) {
	var hSum, vSum, count float64
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				d := rank[id(r, c)] - rank[id(r, c+1)]
				if d < 0 {
					d = -d
				}
				hSum += float64(d)
			}
			if r+1 < side {
				d := rank[id(r, c)] - rank[id(r+1, c)]
				if d < 0 {
					d = -d
				}
				vSum += float64(d)
			}
		}
	}
	count = float64(side * (side - 1))
	return hSum / count, vSum / count
}

// TestMultilevelPathHonorsBalancedDegeneracy pins the axis fairness of the
// block solver's path (LOBPCG over the heavy-edge hierarchy): on a square
// grid (degenerate λ₂) the default DegeneracyBalanced policy must produce
// an axis-fair order. A single λ₂ eigenvector is typically axis-aligned —
// a Sweep-like order whose mean rank gap along one axis is ~side times
// the other's — and the block's whole λ₂ cluster plus quartic mixing must
// repair exactly that.
func TestMultilevelPathHonorsBalancedDegeneracy(t *testing.T) {
	const side = 64
	g := graph.GridGraph(graph.MustGrid(side, side), graph.Orthogonal)
	res, err := SpectralOrder(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, v := axisMeanGaps(side, res.Rank)
	hi, lo := h, v
	if lo > hi {
		hi, lo = lo, hi
	}
	// A sweep-like (axis-aligned) order has ratio ~side (64); the balanced
	// diagonal mix is ~1. Anything below 3 proves the cluster was mixed.
	if ratio := hi / lo; ratio > 3 {
		t.Errorf("balanced block-solver order is axis-unfair: mean gaps h=%.1f v=%.1f (ratio %.1f)", h, v, ratio)
	}
}

// TestMultilevelPathRawPolicyKeepsFirstRitzVector confirms the documented
// escape hatch: DegeneracyRaw keeps the block solver's first Ritz vector
// (no eigenspace mixing, no quartic pass) and still yields a valid
// spectral order.
func TestMultilevelPathRawPolicyKeepsFirstRitzVector(t *testing.T) {
	const side = 64
	g := graph.GridGraph(graph.MustGrid(side, side), graph.Orthogonal)
	res, err := SpectralOrder(g, Options{Degeneracy: DegeneracyRaw})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != side*side {
		t.Fatalf("order length %d", len(res.Order))
	}
	seen := make([]bool, side*side)
	for _, u := range res.Order {
		if seen[u] {
			t.Fatal("order is not a permutation")
		}
		seen[u] = true
	}
	// λ₂ must match the closed form regardless of the policy.
	want := 2 * (1 - math.Cos(math.Pi/side))
	if diff := math.Abs(res.Lambda2[0] - want); diff > 1e-6*want {
		t.Errorf("λ₂ = %.8g, want %.8g", res.Lambda2[0], want)
	}
}
