// Package spectrallpm is the public API of the Spectral LPM library — a Go
// implementation of "Spectral LPM: An Optimal Locality-Preserving Mapping
// using the Spectral (not Fractal) Order" (Mokbel, Aref, Grama; ICDE 2003).
//
// A locality-preserving mapping (LPM) places multi-dimensional points on a
// one-dimensional storage medium so that points nearby in space stay nearby
// on disk. The classic tools are fractal space-filling curves (Hilbert,
// Z-order/"Peano", Gray); the paper's contribution is Spectral LPM, which
// instead sorts the points by their component in the Fiedler vector (the
// eigenvector of the second-smallest eigenvalue λ₂) of the point-set
// graph's Laplacian — a provably optimal relaxation of the linear
// arrangement problem.
//
// # Quick start
//
// The entry point is Index: build once (the expensive spectral solve),
// then serve any number of concurrent queries.
//
//	ix, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(16, 16))
//	if err != nil { ... }
//	rank, err := ix.Rank(3, 7)    // 1-D position of point (3,7)
//	runs, err := ix.Pages(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{4, 4}})
//
// Mapping names (WithMapping): "spectral" (default) plus the curve
// families "hilbert", "gray", "morton" (the paper's "Peano"), "peano"
// (the base-3 Peano), "sweep", "snake". Arbitrary point sets — the
// paper's general setting — index with WithPoints. The §4 extensions
// (edge weights, affinity edges from access patterns, 8-connectivity)
// are the WithEdgeWeights, WithAffinity, and WithConnectivity options.
//
// An Index is immutable, goroutine-safe, and persistable: WriteTo saves
// the solved order in a versioned format and ReadIndex loads it at server
// startup without re-solving.
//
// The graph-level functions (PointGraph, SpectralOrder, Bisect,
// KWayPartition) remain first-class for partitioning and analysis
// workloads that want the order or the Fiedler vector itself rather than
// a serving index.
//
// # Scaling
//
// Default grid builds (orthogonal connectivity, unit weights, no affinity,
// balanced degeneracy — the paper's own construction) run no eigensolve at
// all: Build computes the order in closed form from the grid Laplacian's
// analytic eigensystem (internal/analytic) and records
// "solver":"closed-form" provenance; Index.Solver reports it. Everything
// below concerns the solver paths that remain.
//
// Options.Solver tunes the eigensolver. The default (MethodAuto) runs the
// dense Jacobi reference solver on graphs of at most
// SolverOptions.DenseCutoff vertices and one block solver above: LOBPCG
// that warm-starts from a heavy-edge-matching hierarchy of the graph, is
// preconditioned by a V-cycle over that hierarchy, and returns λ₂ with
// its whole eigenspace in one solve — so the balanced degeneracy policy
// costs no extra solve on symmetric point sets. It scales spectral
// ordering to graphs of hundreds of thousands of vertices. Set
// SolverOptions.Parallelism to spread the sparse matrix-vector and block
// kernels over goroutines (0 = all of GOMAXPROCS, 1 = serial; results are
// bit-identical at every setting), and SolverOptions.Method to MethodExact
// (the block solver at every size) or MethodDense to force a path;
// ParseSolverMethod maps the flag spellings "auto" | "exact" | "dense"
// (as in cmd/lpmbench -solver) to methods.
//
// Locality metrics (the paper's evaluation quantities), the paged-storage
// simulator, packed R-trees, and declustering live in the same module and
// are exercised by the examples/ programs and cmd/lpmbench.
package spectrallpm

import (
	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/metrics"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/partition"
	"github.com/spectral-lpm/spectrallpm/internal/sfc"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// Grid describes a finite d-dimensional grid of points (vertex ids are
// row-major).
type Grid = graph.Grid

// Graph is a weighted undirected graph over point indices — the paper's
// G(V,E).
type Graph = graph.Graph

// Connectivity selects the grid-graph neighborhood (paper §4).
type Connectivity = graph.Connectivity

// Grid-graph connectivities.
const (
	// Orthogonal connects points at Manhattan distance 1 (the paper's
	// default, 4-connectivity in 2-D).
	Orthogonal = graph.Orthogonal
	// Diagonal connects points at Chebyshev distance 1 (8-connectivity in
	// 2-D, the paper's Figure 4 variant).
	Diagonal = graph.Diagonal
)

// Mapping is a bijection between grid points and 1-D ranks.
type Mapping = order.Mapping

// AffinityEdge expresses that two points should map near each other
// (paper §4).
type AffinityEdge = order.AffinityEdge

// Options tunes SpectralOrder (eigensolver and degeneracy policy).
type Options = core.Options

// Result is the outcome of SpectralOrder: the linear order S, its inverse
// ranks, the Fiedler assignment, and per-component λ₂.
type Result = core.Result

// DegeneracyPolicy selects how degenerate λ₂ eigenspaces are resolved.
type DegeneracyPolicy = core.DegeneracyPolicy

// Degeneracy policies.
const (
	// DegeneracyBalanced picks the eigenspace vector minimizing the
	// quartic edge objective (default; reproduces the paper's fairness).
	DegeneracyBalanced = core.DegeneracyBalanced
	// DegeneracyRaw keeps the solver's arbitrary eigenvector.
	DegeneracyRaw = core.DegeneracyRaw
)

// SolverOptions tunes the eigensolver backing SpectralOrder.
type SolverOptions = eigen.Options

// SolverMethod selects the eigensolver implementation.
type SolverMethod = eigen.Method

// Eigensolver methods.
const (
	// MethodAuto picks dense Jacobi for small graphs and the block solver
	// otherwise.
	MethodAuto = eigen.MethodAuto
	// MethodDense densifies and runs the Jacobi reference solver.
	MethodDense = eigen.MethodDense
	// MethodExact forces the block solver (LOBPCG over the heavy-edge
	// hierarchy) at every size. Setting it also opts a default grid build
	// out of the closed form.
	MethodExact = eigen.MethodExact
)

// ParseSolverMethod resolves a solver name ("auto", "exact", "dense") for
// flags and configs.
func ParseSolverMethod(s string) (SolverMethod, error) { return eigen.ParseMethod(s) }

// Curve is a space-filling curve with forward (Index) and inverse (Coords)
// transforms.
type Curve = sfc.Curve

// Box is an axis-aligned range query.
type Box = workload.Box

// IOStats is the simulated disk cost of one query.
type IOStats = storage.IOStats

// PairStats aggregates 1-D rank gaps by multi-dimensional Manhattan
// distance (paper Figure 5a).
type PairStats = metrics.PairStats

// AxisGapStats measures per-dimension fairness (paper Figure 5b).
type AxisGapStats = metrics.AxisGapStats

// SpanStats summarizes range-query rank spans (paper Figure 6).
type SpanStats = metrics.SpanStats

// PartialSpanStats summarizes spans over the partial-query population
// (paper Figure 6's "all possible partial range queries").
type PartialSpanStats = metrics.PartialSpanStats

// ClusterStats counts contiguous 1-D runs per query (Moon et al.'s
// clustering metric).
type ClusterStats = metrics.ClusterStats

// NewGrid returns a grid with the given per-dimension side lengths.
func NewGrid(dims ...int) (*Grid, error) { return graph.NewGrid(dims...) }

// MustGrid is NewGrid that panics on error, for literals.
func MustGrid(dims ...int) *Grid { return graph.MustGrid(dims...) }

// NewGraph returns an empty graph on n vertices; add edges with AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// GridGraph builds the unit-weight graph of a grid under the given
// connectivity (the paper's step 1 on a full grid).
func GridGraph(g *Grid, conn Connectivity) *Graph { return graph.GridGraph(g, conn) }

// PointGraph builds the paper's step-1 graph on an arbitrary set of
// distinct integer points: a unit edge between every pair at Manhattan
// distance 1.
func PointGraph(points [][]int) (*Graph, error) { return graph.PointGraph(points) }

// SpectralOrder runs Spectral LPM (the paper's Figure 2) on a graph.
func SpectralOrder(g *Graph, opt Options) (*Result, error) { return core.SpectralOrder(g, opt) }

// ArrangementCost evaluates the paper's Theorem 1 objective
// Σ w·(x_u − x_v)² for an assignment x.
func ArrangementCost(g *Graph, x []float64) (float64, error) { return core.ArrangementCost(g, x) }

// LinearArrangementCost evaluates the discrete minimum-linear-arrangement
// objective Σ w·|rank_u − rank_v|.
func LinearArrangementCost(g *Graph, rank []int) (float64, error) {
	return core.LinearArrangementCost(g, rank)
}

// Bisect spectrally bisects a graph at the median of the spectral order.
func Bisect(g *Graph, opt Options) (left, right []int, err error) { return core.Bisect(g, opt) }

// StandardMappings lists the mapping names the paper's experiments compare.
func StandardMappings() []string { return order.StandardNames() }

// NewCurve constructs a space-filling curve by family name over a
// d-dimensional cube of the given side.
func NewCurve(name string, d, side int) (Curve, error) { return sfc.New(name, d, side) }

// PairwiseByManhattan computes exact pair statistics over all point pairs
// (paper Figure 5a's quantity).
func PairwiseByManhattan(m *Mapping) *PairStats { return metrics.PairwiseByManhattan(m) }

// AxisGap measures the rank gaps of pairs separated by delta along a single
// axis (paper Figure 5b's quantity).
func AxisGap(m *Mapping, axis, delta int) (AxisGapStats, error) {
	return metrics.AxisGap(m, axis, delta)
}

// RangeSpan measures rank spans of a sliding box query (paper Figure 6's
// quantity), in O(N·d) time.
func RangeSpan(m *Mapping, queryDims []int) (SpanStats, error) {
	return metrics.RangeSpanFast(m, queryDims)
}

// PartialRangeSpan aggregates rank spans over all partial range queries of
// approximately the given volume fraction (the paper's Figure 6
// population). A tolFactor of 0 uses √2.
func PartialRangeSpan(m *Mapping, fraction, tolFactor float64) (PartialSpanStats, error) {
	return metrics.PartialRangeSpan(m, fraction, tolFactor)
}

// RangeClusters counts contiguous rank runs per sliding box query.
func RangeClusters(m *Mapping, queryDims []int) (ClusterStats, error) {
	return metrics.RangeClusters(m, queryDims)
}

// RecallStats summarizes rank-window k-NN recall.
type RecallStats = metrics.RecallStats

// NNRecall measures how well the 1-D order answers k-nearest-neighbor
// queries by scanning `window` ranks on each side of the query's rank.
func NNRecall(m *Mapping, k, window, samples int, seed int64) (RecallStats, error) {
	return metrics.NNRecall(m, k, window, samples, seed)
}

// OptimalLinearArrangement computes an exact minimum linear arrangement
// for small graphs (n ≤ 20), for validating spectral orders.
func OptimalLinearArrangement(g *Graph) (rank []int, cost float64, err error) {
	return core.OptimalLinearArrangement(g)
}

// SpectralOptimalityRatio compares the spectral order's discrete
// arrangement cost against the exact optimum on a small graph.
func SpectralOptimalityRatio(g *Graph, opt Options) (ratio, spectralCost, optimalCost float64, err error) {
	return core.SpectralOptimalityRatio(g, opt)
}

// KWayPartition spectrally partitions a graph into k near-equal parts by
// recursive median cuts (the paper's cited partitioning application).
func KWayPartition(g *Graph, k int, opt Options) ([][]int, error) {
	return partition.KWay(g, k, opt)
}

// PartitionEdgeCut returns the total weight of edges crossing parts, given
// per-vertex labels.
func PartitionEdgeCut(g *Graph, labels []int) (float64, error) {
	return partition.EdgeCut(g, labels)
}

// PartitionLabels flattens parts into per-vertex labels.
func PartitionLabels(parts [][]int, n int) ([]int, error) {
	return partition.Labels(parts, n)
}
