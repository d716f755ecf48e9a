package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Coarsening for the block eigensolver (internal/eigen): a hierarchy of
// progressively smaller weighted graphs built by heavy-edge matching, the
// standard multilevel contraction (Hendrickson–Leland, METIS). Each level
// merges matched vertex pairs into one coarse vertex; edge weights between
// clusters are summed, so the coarse Laplacian's quadratic form agrees with
// the fine one on cluster-constant vectors (it is the Galerkin product
// PᵀLP for piecewise-constant prolongation P). The eigenvectors of a
// coarse level, prolonged piecewise-constantly, warm-start the next finer
// level, and the same levels form the solver's V-cycle preconditioner.

// CoarsenOptions tunes BuildHierarchy.
type CoarsenOptions struct {
	// MinSize stops coarsening once a level has at most this many vertices.
	// Defaults to 96 (the eigensolver's dense-Jacobi comfort zone).
	MinSize int
	// MaxLevels caps the number of coarse levels. Defaults to 40, which is
	// never reached when matching halves each level.
	MaxLevels int
	// MinShrink stops coarsening when a level fails to shrink below
	// MinShrink * (previous size) — matching has stalled (e.g. star graphs).
	// Defaults to 0.95.
	MinShrink float64
	// Seed makes the random vertex visit order of the matching
	// deterministic. The same seed always yields the same hierarchy.
	Seed int64
}

func (o CoarsenOptions) withDefaults() CoarsenOptions {
	if o.MinSize <= 0 {
		o.MinSize = 96
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 40
	}
	if o.MinShrink <= 0 || o.MinShrink >= 1 {
		o.MinShrink = 0.95
	}
	return o
}

// Hierarchy is a multilevel contraction of a graph. Graphs[0] is the
// original; Graphs[len-1] the coarsest. Maps[l][v] is the vertex of
// Graphs[l+1] that vertex v of Graphs[l] was contracted into.
type Hierarchy struct {
	Graphs []*Graph
	Maps   [][]int
}

// Levels returns the number of levels (at least 1; the original graph).
func (h *Hierarchy) Levels() int { return len(h.Graphs) }

// Coarsest returns the smallest graph of the hierarchy.
func (h *Hierarchy) Coarsest() *Graph { return h.Graphs[len(h.Graphs)-1] }

// Prolong lifts a vector on level+1 to level by piecewise-constant
// interpolation: every fine vertex inherits the value of its cluster.
func (h *Hierarchy) Prolong(level int, coarse []float64) ([]float64, error) {
	if level < 0 || level >= len(h.Maps) {
		return nil, fmt.Errorf("graph: Prolong level %d outside [0,%d)", level, len(h.Maps))
	}
	m := h.Maps[level]
	if len(coarse) != h.Graphs[level+1].N() {
		return nil, fmt.Errorf("graph: Prolong vector length %d, level %d has %d vertices",
			len(coarse), level+1, h.Graphs[level+1].N())
	}
	fine := make([]float64, len(m))
	for v, c := range m {
		fine[v] = coarse[c]
	}
	return fine, nil
}

// BuildHierarchy coarsens g by repeated heavy-edge matching until the
// coarsest level is small enough (opt.MinSize), the level budget is
// exhausted, or matching stalls. The input graph is level 0 and is not
// copied or modified.
func BuildHierarchy(g *Graph, opt CoarsenOptions) *Hierarchy {
	opt = opt.withDefaults()
	h := &Hierarchy{Graphs: []*Graph{g}}
	rng := rand.New(rand.NewSource(opt.Seed))
	for len(h.Graphs) <= opt.MaxLevels {
		cur := h.Coarsest()
		if cur.N() <= opt.MinSize {
			break
		}
		coarse, cmap := CoarsenHEM(cur, rng.Int63())
		if float64(coarse.N()) > opt.MinShrink*float64(cur.N()) {
			break
		}
		h.Graphs = append(h.Graphs, coarse)
		h.Maps = append(h.Maps, cmap)
	}
	return h
}

// CoarsenHEM performs one level of heavy-edge matching: vertices are visited
// in a seeded random order, each unmatched vertex is matched to its unmatched
// neighbor across the heaviest incident edge (ties to the smallest vertex
// id), and matched pairs (or stranded singletons) become coarse vertices.
// Edge weights between distinct clusters are summed; collapsed intra-cluster
// edges disappear (their weight is what the matching "absorbed"). It returns
// the coarse graph and the fine-to-coarse vertex map. Contraction preserves
// connectivity: if g is connected, so is the coarse graph.
func CoarsenHEM(g *Graph, seed int64) (*Graph, []int) {
	n := g.N()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	order := rand.New(rand.NewSource(seed)).Perm(n)

	cmap := make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	coarseN := 0
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		// Heaviest unmatched neighbor; ties broken by smallest id so the
		// result depends only on the visit order, not adjacency layout.
		best, bestW := -1, 0.0
		for _, e := range g.Neighbors(u) {
			if match[e.To] != -1 || e.To == u {
				continue
			}
			if e.Weight > bestW || (e.Weight == bestW && best != -1 && e.To < best) {
				best, bestW = e.To, e.Weight
			}
		}
		if best == -1 {
			match[u] = u // stranded: singleton cluster
		} else {
			match[u], match[best] = best, u
			cmap[best] = coarseN
		}
		cmap[u] = coarseN
		coarseN++
	}

	// Accumulate inter-cluster weights, then emit each undirected coarse
	// edge once.
	acc := make(map[uint64]float64, g.NumEdges())
	g.Edges(func(u, v int, w float64) {
		cu, cv := cmap[u], cmap[v]
		if cu == cv {
			return
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		acc[uint64(cu)<<32|uint64(cv)] += w
	})
	keys := make([]uint64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	coarse := New(coarseN)
	for _, k := range keys {
		cu, cv := int(k>>32), int(k&0xffffffff)
		if err := coarse.AddEdge(cu, cv, acc[k]); err != nil {
			// Unreachable: indices come from cmap, weights are sums of
			// positive fine weights.
			panic(fmt.Sprintf("graph: coarse edge assembly failed: %v", err))
		}
	}
	return coarse, cmap
}
