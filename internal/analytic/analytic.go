// Package analytic computes the spectral order of the paper's default
// construction — the orthogonal, unit-weight grid graph — in closed form,
// with zero eigensolves.
//
// The Laplacian of an m₁×…×m_d grid is the Kronecker sum of path-graph
// Laplacians, so its eigenpairs are tensor products of the path eigenpairs:
// every eigenvalue is a sum Σ_a 2(1−cos(π k_a/m_a)) and its eigenvector is
// the product of path cosines cos(π k_a (i_a+½)/m_a). The second-smallest
// eigenvalue takes k = (0,…,0) except a single 1 on a longest axis:
//
//	λ₂ = 2(1 − cos(π/M)),   M = max side,
//
// and its eigenspace is spanned by the first cosine harmonic along each
// axis of length M — one vector per longest axis, constant across all other
// axes. GridOrder materializes that eigenspace directly:
//
//   - A unique longest axis gives a simple λ₂; the Fiedler vector is the
//     single harmonic.
//   - Tied longest axes give a degenerate eigenspace with a fully analytic
//     basis; the DegeneracyBalanced quartic mixing runs over that basis
//     through the same basis-independent engine (core.MixBalanced) the
//     eigensolver path uses — no eigensolve at all. The quartic
//     objective itself collapses to the closed form Σ_a c_a⁴·S with one
//     O(M) coefficient, so each descent step is O(k).
//   - Ordering runs through core.OrderByValues (the same snapping,
//     orientation, and recursive tie-breaking as the solver path). Tie
//     groups are resolved analytically: a group is a union of constant-
//     value slabs whose connected components are sub-grids, so the paper's
//     recursive tie-breaking recurses into GridOrder again — the recursion
//     never solves an eigenproblem at any level.
//
// The result is pinned rank-for-rank to the eigensolver path wherever the
// solver resolves the spectrum faithfully: both paths share the ordering
// pipeline and the mixing engine, so they can only diverge where solver
// error exceeds the snapping tolerance or where genuinely distinct
// eigenvalues fall inside the solver's degeneracy tolerance (axes of
// length ≳10⁵, far beyond buildable grids).
package analytic

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// maxMixAxes mirrors the eigensolver's λ₂ cluster cap (eigen's
// maxMultiplicity): the solver mixes at most 8 eigenspace members, so
// a grid with more than 8 tied longest axes falls back to the solver rather
// than mix a larger basis than the solver would.
const maxMixAxes = 8

// errNoClosedForm reports a grid outside the closed-form engine's reach
// (more tied longest axes than the solver-mirroring mixing cap). Callers
// fall back to the eigensolver.
var errNoClosedForm = errors.New("analytic: tie structure has no closed form")

// Result is the closed-form spectral order of a default grid.
type Result struct {
	// Order[r] is the vertex placed at rank r; Rank is its inverse.
	Order []int
	Rank  []int
	// Fiedler is the analytic Fiedler assignment (the degenerate-balanced
	// mix on square-ish grids), oriented so the order ascends with it.
	Fiedler []float64
	// Lambda2 is the closed-form algebraic connectivity 2(1 − cos(π/M)).
	Lambda2 float64
}

// Applicable reports whether GridOrder covers the grid: at most maxMixAxes
// axes tie for the longest side. (Every other default grid is covered; a
// failure inside GridOrder's tie resolution is still possible in principle
// and surfaces as an error there.)
func Applicable(g *graph.Grid) bool {
	dims := g.Dims()
	m := 0
	for _, s := range dims {
		if s > m {
			m = s
		}
	}
	if m < 2 {
		return true // single vertex
	}
	tied := 0
	for _, s := range dims {
		if s == m {
			tied++
		}
	}
	return tied <= maxMixAxes
}

// GridOrder computes the spectral order of the orthogonal unit-weight graph
// of g analytically, in O(N log N) time and zero eigensolves. seed drives
// the deterministic degenerate mixing exactly as it does on the solver
// path. An error (errNoClosedForm wrapped, or a tied-axis count beyond
// maxMixAxes) means the caller should run the eigensolver instead.
func GridOrder(g *graph.Grid, seed int64) (*Result, error) {
	n := g.Size()
	if n == 1 {
		return &Result{Order: []int{0}, Rank: []int{0}, Fiedler: []float64{0}, Lambda2: 0}, nil
	}
	e, err := newEngine(g, seed)
	if err != nil {
		return nil, err
	}
	x := e.fiedler()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	ordered, flipped, err := core.OrderByValues(ids, x, e.resolveGroup)
	if err != nil {
		return nil, err
	}
	if flipped {
		for i := range x {
			x[i] = -x[i]
		}
	}
	rank := make([]int, n)
	for r, v := range ordered {
		rank[v] = r
	}
	return &Result{
		Order:   ordered,
		Rank:    rank,
		Fiedler: x,
		Lambda2: 2 * (1 - math.Cos(math.Pi/float64(e.m))),
	}, nil
}

// engine holds the analytic structure of one grid: tied axes, cosine
// tables, strides, and the memoized slab recursion.
type engine struct {
	g      *graph.Grid
	dims   []int
	stride []int
	axesT  []int // axes tied for the longest side M
	nonT   []int // the remaining axes
	m      int   // M, the longest side
	seed   int64
	cosT   []float64 // cos(π(i+½)/M), i = 0..M−1
	gamma  float64   // per-harmonic normalization √(2/N)

	// slabOffsets[r] is the id offset (relative to a slab's base id) of the
	// slab vertex at slab rank r — the recursive spectral order of the
	// non-tied sub-grid, computed once and reused by every slab.
	slabOffsets []int
}

func newEngine(g *graph.Grid, seed int64) (*engine, error) {
	dims := g.Dims()
	d := len(dims)
	e := &engine{g: g, dims: dims, seed: seed}
	e.stride = make([]int, d)
	s := 1
	for i := d - 1; i >= 0; i-- {
		e.stride[i] = s
		s *= dims[i]
	}
	for _, side := range dims {
		if side > e.m {
			e.m = side
		}
	}
	for a, side := range dims {
		if side == e.m {
			e.axesT = append(e.axesT, a)
		} else {
			e.nonT = append(e.nonT, a)
		}
	}
	if len(e.axesT) > maxMixAxes {
		return nil, fmt.Errorf("analytic: %d tied longest axes exceed the %d-member mixing cap: %w",
			len(e.axesT), maxMixAxes, errNoClosedForm)
	}
	e.cosT = make([]float64, e.m)
	for i := range e.cosT {
		e.cosT[i] = math.Cos(math.Pi * (float64(i) + 0.5) / float64(e.m))
	}
	e.gamma = math.Sqrt(2 / float64(g.Size()))
	return e, nil
}

// fiedler returns the analytic Fiedler assignment: the single harmonic on a
// unique longest axis, or the balanced mix of the tied-axis harmonics.
func (e *engine) fiedler() []float64 {
	if len(e.axesT) == 1 {
		x := make([]float64, e.g.Size())
		e.addHarmonic(x, e.axesT[0], e.gamma)
		return x
	}
	return core.MixBalanced(&mixSpace{e: e}, e.seed)
}

// addHarmonic accumulates x[v] += scale·cos(π(coord_axis(v)+½)/M) without
// materializing coordinates: ids are row-major, so the axis coordinate is
// (id / stride) mod side.
func (e *engine) addHarmonic(x []float64, axis int, scale float64) {
	st, side := e.stride[axis], e.dims[axis]
	for id := range x {
		x[id] += scale * e.cosT[(id/st)%side]
	}
}

// mixSpace presents the tied-axis eigenspace to core.MixBalanced. The basis
// vectors b_a(v) = γ·cos(π(coord_a(v)+½)/M) are exactly orthonormal, and
// because b_a differs across an edge only when the edge runs along axis a,
// the quartic edge objective collapses to f(c) = S·Σ_a c_a⁴ with a single
// shared coefficient S (tied axes have identical harmonics).
type mixSpace struct {
	e *engine
	s float64 // lazily computed quartic coefficient
}

func (sp *mixSpace) Ambient() int { return sp.e.g.Size() }
func (sp *mixSpace) Dim() int     { return len(sp.e.axesT) }

func (sp *mixSpace) Project(r []float64, c []float64) {
	e := sp.e
	for j, axis := range e.axesT {
		st, side := e.stride[axis], e.dims[axis]
		var dot float64
		for id, rv := range r {
			dot += rv * e.cosT[(id/st)%side]
		}
		c[j] = e.gamma * dot
	}
}

func (sp *mixSpace) coef() float64 {
	if sp.s == 0 {
		e := sp.e
		var sum float64
		for i := 0; i+1 < e.m; i++ {
			d := e.cosT[i+1] - e.cosT[i]
			sum += d * d * d * d
		}
		g4 := e.gamma * e.gamma * e.gamma * e.gamma
		sp.s = g4 * float64(e.g.Size()/e.m) * sum
	}
	return sp.s
}

func (sp *mixSpace) Objective(c []float64) float64 {
	var f float64
	for _, cj := range c {
		sq := cj * cj
		f += sq * sq
	}
	return sp.coef() * f
}

func (sp *mixSpace) Gradient(c []float64, out []float64) {
	s := sp.coef()
	for j, cj := range c {
		out[j] = 4 * s * cj * cj * cj
	}
}

func (sp *mixSpace) Assemble(c []float64) []float64 {
	e := sp.e
	x := make([]float64, e.g.Size())
	for j, axis := range e.axesT {
		e.addHarmonic(x, axis, e.gamma*c[j])
	}
	return x
}

// resolveGroup is the analytic form of the paper's recursive tie-breaking.
// The Fiedler assignment depends only on the tied-axis coordinates, so a
// tie group is a union of SLABS — for each tied-coordinate tuple in the
// group, the full sub-grid over the non-tied axes. Slabs whose tuples
// differ in one tied coordinate by one are adjacent; connected components
// of that slab graph are ordered by smallest vertex id (exactly what the
// solver path's component split does) and each component recurses:
//
//   - a single slab is the non-tied sub-grid → recursive GridOrder,
//     computed once and reused by every slab (slabs are congruent);
//   - several adjacent slabs forming an axis-aligned box in tied-coordinate
//     space are that box's sub-grid → recursive GridOrder on strictly
//     fewer vertices;
//   - any other shape (bands merged by snapping — axes ≳1000 long) is
//     ordered by a true spectral solve of just that component's induced
//     subgraph, the same recursion step the solver path runs, bounded by
//     the component size rather than the grid.
func (e *engine) resolveGroup(group []int) ([]int, error) {
	if len(e.nonT) == 0 && len(group) == 2 && e.manhattan(group[0], group[1]) > 1 {
		// The square-grid common case — a symmetric pair like {(i,j),(j,i)},
		// always non-adjacent: two singleton slabs, components in id order.
		// Skipping the slab machinery here saves one map per pair on grids
		// with hundreds of thousands of pairs.
		return group, nil
	}
	nonTVol := nonTVolume(e)
	// Slab decomposition: key = Σ_{a∈T} coord_a·stride_a (the slab's base
	// id, since the slab holds the full all-zeros non-tied corner).
	keyAt := make(map[int]int) // slab key -> count of group members seen
	var keys []int
	for _, id := range group {
		key := 0
		for _, a := range e.axesT {
			key += ((id / e.stride[a]) % e.dims[a]) * e.stride[a]
		}
		if _, ok := keyAt[key]; !ok {
			keys = append(keys, key)
		}
		keyAt[key]++
	}
	sort.Ints(keys)
	for _, k := range keys {
		if keyAt[k] != nonTVol {
			// A partial slab would mean exactly-equal values were split
			// across groups, which snapping cannot do; defensive only.
			return nil, fmt.Errorf("analytic: partial slab in tie group: %w", errNoClosedForm)
		}
	}
	comps := e.slabComponents(keys)
	out := make([]int, 0, len(group))
	for _, comp := range comps {
		var err error
		if out, err = e.appendComponent(out, comp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// slabComponents groups slab keys into connected components (adjacency:
// tied-coordinate tuples differing by one grid step) and returns them
// sorted by smallest key, each component's keys ascending.
func (e *engine) slabComponents(keys []int) [][]int {
	in := make(map[int]bool, len(keys))
	for _, k := range keys {
		in[k] = true
	}
	seen := make(map[int]bool, len(keys))
	var comps [][]int
	for _, start := range keys { // ascending → components sorted by min key
		if seen[start] {
			continue
		}
		comp := []int{start}
		seen[start] = true
		for i := 0; i < len(comp); i++ {
			k := comp[i]
			for _, a := range e.axesT {
				c := (k / e.stride[a]) % e.dims[a]
				if c > 0 {
					if nb := k - e.stride[a]; in[nb] && !seen[nb] {
						seen[nb] = true
						comp = append(comp, nb)
					}
				}
				if c+1 < e.dims[a] {
					if nb := k + e.stride[a]; in[nb] && !seen[nb] {
						seen[nb] = true
						comp = append(comp, nb)
					}
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// appendComponent emits one slab component in its recursive spectral order.
func (e *engine) appendComponent(out []int, comp []int) ([]int, error) {
	if len(comp) == 1 {
		offsets, err := e.slabRanks()
		if err != nil {
			return nil, err
		}
		base := comp[0]
		for _, off := range offsets {
			out = append(out, base+off)
		}
		return out, nil
	}
	// Several adjacent slabs: they must tile an axis-aligned box in
	// tied-coordinate space for the induced subgraph to be a grid.
	d := len(e.dims)
	lo := make([]int, d)
	hi := make([]int, d)
	for i := range lo {
		lo[i] = int(^uint(0) >> 1)
	}
	for _, k := range comp {
		for _, a := range e.axesT {
			c := (k / e.stride[a]) % e.dims[a]
			if c < lo[a] {
				lo[a] = c
			}
			if c > hi[a] {
				hi[a] = c
			}
		}
	}
	vol := 1
	subDims := make([]int, d)
	base := 0
	for i := range e.dims {
		subDims[i] = e.dims[i]
	}
	for _, a := range e.axesT {
		subDims[a] = hi[a] - lo[a] + 1
		vol *= subDims[a]
		base += lo[a] * e.stride[a]
	}
	if vol != len(comp) {
		// The component is not an axis-aligned box (adjacent slabs merged by
		// snapping into a band — axes of length ≳1000). Order its members
		// exactly the way the solver path's recursion would: a spectral
		// solve of the induced subgraph, bounded by the component size,
		// which is a vanishing fraction of the grid.
		members := make([]int, 0, len(comp)*nonTVolume(e))
		for _, k := range comp {
			members = e.appendSlabMembers(members, k)
		}
		sort.Ints(members)
		return e.solveSubgraph(out, members)
	}
	subGrid, err := graph.NewGrid(subDims...)
	if err != nil {
		return nil, err
	}
	// Strictly smaller than the enclosing grid: the component is a strict
	// subset of a tie group, itself a strict subset of the grid.
	sub, err := GridOrder(subGrid, e.seed)
	if err != nil {
		return nil, err
	}
	coords := make([]int, d)
	for _, v := range sub.Order {
		subGrid.Coords(v, coords)
		id := base
		for i, c := range coords {
			id += c * e.stride[i]
		}
		out = append(out, id)
	}
	return out, nil
}

// manhattan returns the grid Manhattan distance between two vertex ids.
func (e *engine) manhattan(a, b int) int {
	var dist int
	for axis, side := range e.dims {
		st := e.stride[axis]
		d := (a/st)%side - (b/st)%side
		if d < 0 {
			d = -d
		}
		dist += d
	}
	return dist
}

func nonTVolume(e *engine) int {
	v := 1
	for _, b := range e.nonT {
		v *= e.dims[b]
	}
	return v
}

// appendSlabMembers appends every vertex id of the slab based at key (the
// full non-tied box translated to the slab's tied coordinates).
func (e *engine) appendSlabMembers(dst []int, key int) []int {
	if len(e.nonT) == 0 {
		return append(dst, key)
	}
	coords := make([]int, len(e.nonT))
	for {
		id := key
		for i, b := range e.nonT {
			id += coords[i] * e.stride[b]
		}
		dst = append(dst, id)
		i := len(coords) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < e.dims[e.nonT[i]] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return dst
		}
	}
}

// solveSubgraph orders an arbitrary member set by a true spectral solve of
// its induced grid subgraph — the solver path's own recursion step, used
// only for band-shaped tie groups outside the closed form.
func (e *engine) solveSubgraph(out []int, members []int) ([]int, error) {
	g := graph.New(len(members))
	idx := make(map[int]int, len(members))
	for li, id := range members {
		idx[id] = li
	}
	for li, id := range members {
		for axis, side := range e.dims {
			st := e.stride[axis]
			if (id/st)%side+1 < side {
				if lj, ok := idx[id+st]; ok {
					if err := g.AddUnitEdge(li, lj); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	res, err := core.SpectralOrder(g, core.Options{Solver: eigen.Options{Seed: e.seed}})
	if err != nil {
		return nil, err
	}
	for _, v := range res.Order {
		out = append(out, members[v])
	}
	return out, nil
}

// slabRanks returns (memoized) the id offsets of one slab's vertices in the
// recursive spectral order of the non-tied sub-grid.
func (e *engine) slabRanks() ([]int, error) {
	if e.slabOffsets != nil {
		return e.slabOffsets, nil
	}
	if len(e.nonT) == 0 {
		e.slabOffsets = []int{0}
		return e.slabOffsets, nil
	}
	subDims := make([]int, len(e.nonT))
	for i, b := range e.nonT {
		subDims[i] = e.dims[b]
	}
	subGrid, err := graph.NewGrid(subDims...)
	if err != nil {
		return nil, err
	}
	sub, err := GridOrder(subGrid, e.seed)
	if err != nil {
		return nil, err
	}
	offsets := make([]int, len(sub.Order))
	coords := make([]int, len(subDims))
	for r, v := range sub.Order {
		subGrid.Coords(v, coords)
		off := 0
		for i, c := range coords {
			off += c * e.stride[e.nonT[i]]
		}
		offsets[r] = off
	}
	e.slabOffsets = offsets
	return offsets, nil
}
