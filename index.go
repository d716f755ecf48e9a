package spectrallpm

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/spectral-lpm/spectrallpm/internal/analytic"
	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/serve"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// PageRun is a maximal run of contiguous pages a query touches — the unit
// of sequential I/O an executor can issue as one read.
type PageRun = storage.PageRun

// DefaultRecordsPerPage is the page capacity Build uses when WithPageSize
// is not given.
const DefaultRecordsPerPage = 64

// Index is the serving-oriented entry point of the library: a
// locality-preserving mapping built once (the expensive spectral solve, or
// any curve mapping) and then consulted for every query against the
// storage medium.
//
// An Index is immutable after Build or ReadIndex returns: every method is
// read-only and safe for concurrent use by any number of goroutines
// without external locking. Persist a built index with WriteTo and load it
// at server startup with ReadIndex — no re-solve needed.
//
// An Index covers either a full grid (every point of WithGrid's grid) or
// an arbitrary point set (WithPoints). Both expose the same serving
// surface: Rank/Point lookups, RankBatch for amortized slices, Scan for
// streaming results of a box query in 1-D order, and Pages/QueryIO for the
// page-level I/O plan and cost of a query.
type Index struct {
	name    string
	grid    *graph.Grid    // bounding grid (always set)
	mapping *order.Mapping // full-grid indexes; nil for point sets
	store   *storage.Store // full-grid indexes; nil for point sets

	// Point-set indexes only.
	pts      [][]int     // coordinates by point id (input order)
	idSorted []int       // bounding-grid vertex ids of the points, ascending
	pidOf    []int       // point id at each idSorted position
	rank     []int       // rank[point id]
	vert     []int       // point id at each rank
	rt       *rtree.Tree // rank-order packed over pts; box queries probe it

	pager   *storage.Pager
	lambda2 []float64 // per-component λ₂; nil for curve/rank mappings
	meta    provenance
	par     int        // serving parallelism (QueryBatch workers); 0 = GOMAXPROCS
	core    serve.Core // the shared serving core all query methods delegate to

	// Mapped-index lifetime (nil/zero for owned indexes, whose frames the
	// garbage collector manages): lc reference-counts borrows of the mapped
	// region so Close can wait for the last in-flight query, closeFn
	// unmaps, and closeOnce makes Close idempotent under concurrency.
	lc        *serve.Lifecycle
	closeFn   func() error
	closeOnce sync.Once
	closeErr  error
}

// pointTreeFanout is the node capacity of the rank-order packed R-tree
// backing point-set box queries. Leaves hold runs of consecutive ranks, so
// a box query emits matches already sorted by rank.
const pointTreeFanout = 16

// SolverClosedForm is the Solver() provenance of a spectral grid index
// whose order was computed analytically (zero eigensolves) — the automatic
// fast path for default grids. An empty Solver() means an eigensolve (or a
// non-spectral mapping, which runs no solve at all).
const SolverClosedForm = "closed-form"

// provenance records how the order was built, so a loaded index can report
// (and re-serialize) its origin without recomputing anything.
type provenance struct {
	connectivity string // "orthogonal" | "diagonal" | "" (curve/rank mappings)
	weights      string // "unit" | "custom" | ""
	affinity     int    // number of affinity edges folded into the graph
	solver       string // SolverClosedForm | "" (eigensolve or no solve)
}

// buildConfig accumulates Build's functional options.
type buildConfig struct {
	grid       *graph.Grid
	points     [][]int
	name       string
	nameSet    bool
	conn       graph.Connectivity
	weight     func(u, v int) float64
	affinity   []order.AffinityEdge
	solver     eigen.Options
	degeneracy core.DegeneracyPolicy
	ranks      []int
	pageSize   int
}

// BuildOption configures Build.
type BuildOption func(*buildConfig) error

// WithGrid indexes the full grid with the given per-dimension side lengths
// (the paper's dense setting). Exactly one of WithGrid and WithPoints must
// be given.
func WithGrid(dims ...int) BuildOption {
	return func(c *buildConfig) error {
		g, err := graph.NewGrid(dims...)
		if err != nil {
			return err
		}
		c.grid = g
		return nil
	}
}

// WithPoints indexes an arbitrary set of distinct points with non-negative
// integer coordinates (the paper's general setting: an edge joins every
// pair at Manhattan distance 1). Point-set indexes support only the
// spectral mapping — a fractal curve is fixed before the data, which is
// exactly what the paper argues against.
func WithPoints(points [][]int) BuildOption {
	return func(c *buildConfig) error {
		if len(points) == 0 {
			return fmt.Errorf("spectrallpm: no points to index")
		}
		c.points = points
		return nil
	}
}

// WithMapping selects the mapping family: "spectral" (the default) or one
// of the curve names "hilbert", "gray", "morton", "peano", "sweep",
// "snake", "diagonal", "spiral". Unknown names fail Build with
// ErrUnknownMapping.
func WithMapping(name string) BuildOption {
	return func(c *buildConfig) error {
		c.name = strings.ToLower(name)
		c.nameSet = true
		return nil
	}
}

// WithConnectivity selects the grid-graph neighborhood of the spectral
// mapping (paper §4): Orthogonal (the default) or Diagonal. Diagonal
// fails Build when combined with a path that runs no grid solve (curve
// mappings, WithRanks, WithPoints).
func WithConnectivity(conn Connectivity) BuildOption {
	return func(c *buildConfig) error {
		c.conn = conn
		return nil
	}
}

// WithEdgeWeights weights the grid edges of the spectral mapping (paper
// §4). A weighted index records "custom" weight provenance when persisted;
// the function itself cannot be serialized. Fails Build when combined
// with a path that runs no grid solve (curve mappings, WithRanks,
// WithPoints).
func WithEdgeWeights(weight func(u, v int) float64) BuildOption {
	return func(c *buildConfig) error {
		c.weight = weight
		return nil
	}
}

// WithAffinity adds extra edges expressing that two points should map near
// each other (paper §4's access-pattern extension). For WithGrid the
// endpoints are grid vertex ids; for WithPoints they are indices into the
// point slice. Fails Build on non-spectral paths (curve mappings,
// WithRanks), which run no solve the edges could influence.
func WithAffinity(edges ...AffinityEdge) BuildOption {
	return func(c *buildConfig) error {
		c.affinity = append(c.affinity, edges...)
		return nil
	}
}

// WithSolver replaces the full eigensolver configuration (method,
// tolerance, cutoffs, parallelism, seed) in one call.
func WithSolver(o SolverOptions) BuildOption {
	return func(c *buildConfig) error {
		c.solver = o
		return nil
	}
}

// WithSolverMethod forces an eigensolver method (see ParseSolverMethod).
func WithSolverMethod(m SolverMethod) BuildOption {
	return func(c *buildConfig) error {
		c.solver.Method = m
		return nil
	}
}

// WithSeed seeds the eigensolver's randomized starts; the same seed always
// yields the same index.
func WithSeed(seed int64) BuildOption {
	return func(c *buildConfig) error {
		c.solver.Seed = seed
		return nil
	}
}

// WithParallelism sets the goroutine count of the sparse solver kernels
// (0 = all of GOMAXPROCS, 1 = serial).
func WithParallelism(p int) BuildOption {
	return func(c *buildConfig) error {
		c.solver.Parallelism = p
		return nil
	}
}

// WithDegeneracy selects how degenerate λ₂ eigenspaces are resolved
// (DegeneracyBalanced by default).
func WithDegeneracy(p DegeneracyPolicy) BuildOption {
	return func(c *buildConfig) error {
		c.degeneracy = p
		return nil
	}
}

// WithRanks wraps a precomputed rank permutation (rank[vertex id] = 1-D
// position) instead of solving — for orders computed elsewhere. Requires
// WithGrid; the mapping name defaults to "custom" unless WithMapping is
// given.
func WithRanks(rank []int) BuildOption {
	return func(c *buildConfig) error {
		c.ranks = rank
		return nil
	}
}

// WithPageSize sets the records-per-page capacity backing Pages and
// QueryIO (DefaultRecordsPerPage when omitted). The page size is persisted
// with the index.
func WithPageSize(recordsPerPage int) BuildOption {
	return func(c *buildConfig) error {
		if recordsPerPage < 1 {
			return fmt.Errorf("spectrallpm: page size %d < 1", recordsPerPage)
		}
		c.pageSize = recordsPerPage
		return nil
	}
}

// Build constructs an Index: it runs the spectral solve (or wraps a curve
// mapping or a precomputed permutation) and attaches the paged-storage
// plan. The expensive work happens exactly once, here; the returned Index
// is immutable and goroutine-safe. Cancellation of ctx is observed between
// build phases (graph construction, eigensolve, wrapping) — a solve
// already in flight runs to completion.
func Build(ctx context.Context, opts ...BuildOption) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := buildConfig{name: "spectral", pageSize: DefaultRecordsPerPage}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if (cfg.grid == nil) == (cfg.points == nil) {
		return nil, fmt.Errorf("spectrallpm: exactly one of WithGrid and WithPoints is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.points != nil {
		return buildPointIndex(ctx, &cfg)
	}
	return buildGridIndex(ctx, &cfg)
}

func buildGridIndex(ctx context.Context, cfg *buildConfig) (*Index, error) {
	ix := &Index{grid: cfg.grid}
	switch {
	case cfg.ranks != nil:
		if err := rejectGraphOptions(cfg, "WithRanks", false); err != nil {
			return nil, err
		}
		if !cfg.nameSet {
			cfg.name = "custom"
		}
		m, err := order.FromRanks(cfg.name, cfg.grid, cfg.ranks)
		if err != nil {
			return nil, err
		}
		ix.mapping = m
	case cfg.name == "spectral":
		if err := buildSpectralGrid(ctx, cfg, ix); err != nil {
			return nil, err
		}
	default:
		if err := rejectGraphOptions(cfg, "curve mappings", false); err != nil {
			return nil, err
		}
		m, err := order.New(cfg.name, cfg.grid, order.SpectralConfig{})
		if err != nil {
			return nil, err
		}
		ix.mapping = m
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix.name = ix.mapping.Name()
	st, err := storage.NewStore(ix.mapping, cfg.pageSize)
	if err != nil {
		return nil, err
	}
	ix.store = st
	ix.pager = st.Pager()
	ix.par = cfg.solver.Parallelism
	ix.initCore()
	return ix, nil
}

// buildSpectralGrid fills ix with the spectral order of the grid: the
// closed-form engine when the request is exactly the paper's default
// construction (see closedFormApplies), the eigensolver otherwise. Both
// paths share the ordering semantics (internal/core's snapping, recursive
// tie-breaking, and orientation) and the degenerate-eigenspace mixing
// engine, so the closed form is pinned rank-for-rank to the solver.
func buildSpectralGrid(ctx context.Context, cfg *buildConfig, ix *Index) error {
	if closedFormApplies(cfg) {
		ar, err := analytic.GridOrder(cfg.grid, cfg.solver.Seed)
		if err == nil {
			m, err := order.FromRanks("spectral", cfg.grid, ar.Rank)
			if err != nil {
				return err
			}
			ix.mapping = m
			ix.lambda2 = []float64{ar.Lambda2}
			ix.meta = spectralProvenance(cfg)
			ix.meta.solver = SolverClosedForm
			return nil
		}
		// Any closed-form refusal (e.g. more tied longest axes than the
		// mixing cap) runs the eigensolver instead.
	}
	gr := graph.GridGraphWeighted(cfg.grid, cfg.conn, cfg.weight)
	for _, e := range cfg.affinity {
		if err := gr.AddEdge(e.U, e.V, e.Weight); err != nil {
			return fmt.Errorf("spectrallpm: affinity edge: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res, err := core.SpectralOrder(gr, core.Options{Solver: cfg.solver, Degeneracy: cfg.degeneracy})
	if err != nil {
		return err
	}
	m, err := order.FromRanks("spectral", cfg.grid, res.Rank)
	if err != nil {
		return err
	}
	ix.mapping = m
	ix.lambda2 = res.Lambda2
	ix.meta = spectralProvenance(cfg)
	return nil
}

// closedFormApplies reports whether a grid build is exactly the paper's
// default construction served by internal/analytic: orthogonal
// connectivity, unit weights, no affinity edges, the balanced degeneracy
// policy, and default solver semantics. Forcing any solver knob that could
// change the numerics (WithSolverMethod, a custom tolerance or cutoff)
// opts out and runs the requested eigensolver — which is also the escape
// hatch the oracle tests use to compare the two paths. Seed feeds the
// closed form's degenerate mixing exactly as it feeds the solver's;
// Parallelism never changes results on either path.
func closedFormApplies(cfg *buildConfig) bool {
	s := cfg.solver
	return cfg.conn == graph.Orthogonal &&
		cfg.weight == nil &&
		len(cfg.affinity) == 0 &&
		cfg.degeneracy == core.DegeneracyBalanced &&
		s.Method == eigen.MethodAuto &&
		s.Tol == 0 && s.MaxIter == 0 && s.DenseCutoff == 0 &&
		analytic.Applicable(cfg.grid)
}

// rejectGraphOptions fails builds that combine graph-shaping options with
// a path that never feeds them into a solve — silently ignoring them would
// hand back an order the caller believes is tuned, and (for spectral
// provenance) persist metadata the solve never used.
func rejectGraphOptions(cfg *buildConfig, what string, allowAffinity bool) error {
	if cfg.conn != graph.Orthogonal {
		return fmt.Errorf("spectrallpm: WithConnectivity applies only to spectral grid indexes, not %s", what)
	}
	if cfg.weight != nil {
		return fmt.Errorf("spectrallpm: WithEdgeWeights applies only to spectral grid indexes, not %s", what)
	}
	if len(cfg.affinity) != 0 && !allowAffinity {
		return fmt.Errorf("spectrallpm: WithAffinity applies only to spectral indexes, not %s", what)
	}
	return nil
}

func buildPointIndex(ctx context.Context, cfg *buildConfig) (*Index, error) {
	if cfg.nameSet && cfg.name != "spectral" {
		return nil, fmt.Errorf("spectrallpm: point-set indexes support only the spectral mapping (%w %q: curves need a full grid)", ErrUnknownMapping, cfg.name)
	}
	if cfg.ranks != nil {
		return nil, fmt.Errorf("spectrallpm: WithRanks requires WithGrid")
	}
	// The point graph is always the paper's unit-Manhattan adjacency;
	// affinity edges (point indices) are still folded in.
	if err := rejectGraphOptions(cfg, "point sets", true); err != nil {
		return nil, err
	}
	d := len(cfg.points[0])
	dims := make([]int, d)
	for i, p := range cfg.points {
		if len(p) != d {
			return nil, fmt.Errorf("spectrallpm: point %d has arity %d, want %d: %w", i, len(p), d, ErrDimensionMismatch)
		}
		for j, c := range p {
			if c < 0 {
				return nil, fmt.Errorf("spectrallpm: point %d has negative coordinate %d: %w", i, c, ErrDimensionMismatch)
			}
			if c+1 > dims[j] {
				dims[j] = c + 1
			}
		}
	}
	grid, err := graph.NewGrid(dims...)
	if err != nil {
		return nil, err
	}
	pts := make([][]int, len(cfg.points))
	for i, p := range cfg.points {
		pts[i] = append([]int(nil), p...)
	}
	idSorted, pidOf, err := indexPoints(grid, pts)
	if err != nil {
		return nil, err
	}
	gr, err := graph.PointGraph(pts)
	if err != nil {
		return nil, err
	}
	for _, e := range cfg.affinity {
		if err := gr.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, fmt.Errorf("spectrallpm: affinity edge: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.SpectralOrder(gr, core.Options{Solver: cfg.solver, Degeneracy: cfg.degeneracy})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pager, err := storage.NewPager(len(pts), cfg.pageSize)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		name:     "spectral",
		grid:     grid,
		pts:      pts,
		idSorted: idSorted,
		pidOf:    pidOf,
		rank:     res.Rank,
		vert:     res.Order,
		pager:    pager,
		lambda2:  res.Lambda2,
		meta:     spectralProvenance(cfg),
		par:      cfg.solver.Parallelism,
	}
	ix.rt, err = rtree.Pack(pts, res.Order, pointTreeFanout)
	if err != nil {
		return nil, err
	}
	ix.initCore()
	return ix, nil
}

// indexPoints validates a point set against its grid (arity, bounds,
// duplicates) and returns the grid-id -> point-id lookup as a pair of
// parallel slices sorted by grid id, for binary-search lookups with no map
// and no per-lookup allocation. Shared by Build and ReadIndex so the two
// construction paths cannot drift apart.
func indexPoints(grid *graph.Grid, pts [][]int) (idSorted, pidOf []int, err error) {
	d := grid.D()
	dims := grid.Dims()
	ids := make([]int, len(pts))
	for i, p := range pts {
		if len(p) != d {
			return nil, nil, fmt.Errorf("spectrallpm: point %d has arity %d, want %d: %w", i, len(p), d, ErrDimensionMismatch)
		}
		for j, c := range p {
			if c < 0 || c >= dims[j] {
				return nil, nil, fmt.Errorf("spectrallpm: point %d coordinate %d outside [0,%d): %w", i, c, dims[j], ErrDimensionMismatch)
			}
		}
		ids[i] = grid.ID(p)
	}
	pidOf = make([]int, len(pts))
	for i := range pidOf {
		pidOf[i] = i
	}
	sort.Slice(pidOf, func(a, b int) bool { return ids[pidOf[a]] < ids[pidOf[b]] })
	idSorted = make([]int, len(pts))
	for k, pid := range pidOf {
		idSorted[k] = ids[pid]
	}
	for k := 1; k < len(idSorted); k++ {
		if idSorted[k] == idSorted[k-1] {
			a, b := pidOf[k-1], pidOf[k]
			if a > b {
				a, b = b, a
			}
			return nil, nil, fmt.Errorf("spectrallpm: duplicate point at indices %d and %d", a, b)
		}
	}
	return idSorted, pidOf, nil
}

func spectralProvenance(cfg *buildConfig) provenance {
	p := provenance{connectivity: "orthogonal", weights: "unit", affinity: len(cfg.affinity)}
	if cfg.conn == graph.Diagonal {
		p.connectivity = "diagonal"
	}
	if cfg.weight != nil {
		p.weights = "custom"
	}
	return p
}

// Name identifies the mapping family ("spectral", "hilbert", ...).
func (ix *Index) Name() string { return ix.name }

// N returns the number of indexed points (and the number of ranks).
func (ix *Index) N() int {
	if ix.mapping != nil {
		return ix.mapping.N()
	}
	return len(ix.rank)
}

// Dims returns the per-dimension side lengths of the indexed grid (for
// point-set indexes, the bounding box of the points).
func (ix *Index) Dims() []int { return append([]int(nil), ix.grid.Dims()...) }

// D returns the number of dimensions.
func (ix *Index) D() int { return ix.grid.D() }

// Lambda2 returns λ₂ (the algebraic connectivity) of each connected
// component of the solved graph, or nil for curve and precomputed-rank
// indexes.
func (ix *Index) Lambda2() []float64 { return append([]float64(nil), ix.lambda2...) }

// Solver reports how a spectral order was computed: SolverClosedForm for
// the analytic default-grid fast path, "" for an eigensolve (or for
// mappings that run no solve). The value persists through WriteTo/ReadIndex.
func (ix *Index) Solver() string { return ix.meta.solver }

// RecordsPerPage returns the page capacity backing Pages and QueryIO.
func (ix *Index) RecordsPerPage() int { return ix.pager.RecordsPerPage() }

// NumPages returns the number of storage pages the index's records occupy.
func (ix *Index) NumPages() int { return ix.pager.NumPages() }

// Mapping returns the underlying grid mapping for interoperation with the
// metrics functions (PairwiseByManhattan, AxisGap, RangeSpan, ...), or nil
// for point-set indexes. The mapping must be treated as read-only.
func (ix *Index) Mapping() *Mapping { return ix.mapping }

// Points returns a deep copy of the indexed point set in input order, or
// nil for full-grid indexes (use Point to enumerate those).
func (ix *Index) Points() [][]int {
	if ix.pts == nil {
		return nil
	}
	out := make([][]int, len(ix.pts))
	for i, p := range ix.pts {
		out[i] = append([]int(nil), p...)
	}
	return out
}

// Rank returns the 1-D position of the point with the given coordinates.
// It never panics: a wrong arity or an out-of-grid coordinate returns
// ErrDimensionMismatch (full-grid indexes), and a point absent from a
// point-set index returns ErrPointNotIndexed. Rank performs zero heap
// allocations on success: no error path references the coords slice
// directly (errPointNotIndexed formats a copy), so the compiler keeps the
// variadic argument on the caller's stack.
//
//lpm:allocfree — error branches excepted, as the doc above states.
func (ix *Index) Rank(coords ...int) (int, error) {
	if lc := ix.lc; lc != nil {
		// Mapped indexes: the rank array lives in the mapped region, so
		// even this O(1) lookup must hold a borrow or Close could unmap
		// the bytes mid-read.
		if !lc.TryBorrow() {
			return 0, ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	d := ix.grid.D()
	if len(coords) != d {
		//lpm:allocok — error branch; success never reaches it.
		return 0, fmt.Errorf("spectrallpm: coordinate arity %d, want %d: %w", len(coords), d, ErrDimensionMismatch)
	}
	dims := ix.grid.Dims()
	for i, c := range coords {
		if c < 0 || c >= dims[i] {
			if ix.mapping != nil {
				//lpm:allocok — error branch; success never reaches it.
				return 0, fmt.Errorf("spectrallpm: coordinate %d outside [0,%d): %w", c, dims[i], ErrDimensionMismatch)
			}
			return 0, errPointNotIndexed(coords)
		}
	}
	id := ix.grid.ID(coords)
	if ix.mapping != nil {
		return ix.mapping.Rank(id), nil
	}
	i, ok := slices.BinarySearch(ix.idSorted, id)
	if !ok {
		return 0, errPointNotIndexed(coords)
	}
	return ix.rank[ix.pidOf[i]], nil
}

// errPointNotIndexed formats the not-indexed error from a COPY of coords.
// Passing the caller's slice to fmt directly would leak it to the heap and
// cost the hot Rank path one allocation per call even on success — the
// copy confines the allocation to the error branch.
func errPointNotIndexed(coords []int) error {
	return fmt.Errorf("spectrallpm: point %v: %w", append([]int(nil), coords...), ErrPointNotIndexed)
}

// Point returns the coordinates of the point at the given rank. The
// returned slice is freshly allocated. A rank outside [0, N) returns
// ErrRankOutOfRange.
func (ix *Index) Point(rank int) ([]int, error) {
	if lc := ix.lc; lc != nil {
		if !lc.TryBorrow() {
			return nil, ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	if rank < 0 || rank >= ix.N() {
		return nil, fmt.Errorf("spectrallpm: rank %d outside [0,%d): %w", rank, ix.N(), ErrRankOutOfRange)
	}
	if ix.mapping != nil {
		return ix.grid.Coords(ix.mapping.Vertex(rank), nil), nil
	}
	return append([]int(nil), ix.pts[ix.vert[rank]]...), nil
}

// RankBatch appends the ranks of the given points to dst (which may be nil
// or a slice being reused across calls to amortize allocation) and returns
// the extended slice. The first bad point aborts the batch with the same
// errors Rank returns; the returned slice is still dst's backing buffer
// (contents unspecified), so reuse keeps working after an error.
//
//lpm:allocfree — with sufficient dst capacity, nothing reaches the heap.
func (ix *Index) RankBatch(coords [][]int, dst []int) ([]int, error) {
	if cap(dst)-len(dst) < len(coords) {
		grown := make([]int, len(dst), len(dst)+len(coords))
		copy(grown, dst)
		dst = grown
	}
	for _, c := range coords {
		r, err := ix.Rank(c...)
		if err != nil {
			// Hand dst back so the caller's amortized buffer survives a
			// bad batch; its contents are unspecified on error.
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// indexEngine adapts one Index to the serving core's Engine (see
// internal/serve): the single-index frame provider over either the grid
// store's box engine or the point-set R-tree. All serving bodies —
// Scan/ScanInto/Pages/PagesInto/QueryIO/QueryBatch — live in the core;
// the engine contributes only box validation, rank materialization, and
// rank→coordinate translation.
type indexEngine struct{ ix *Index }

// CheckBox checks a box against the index at request time, before any
// scratch is acquired or work scheduled: full-grid indexes require the box
// to lie inside the grid with every side at least 1 (ErrDimensionMismatch
// otherwise); point-set indexes require only the right arity — any extent
// is allowed and only indexed points match (empty sides simply match
// nothing).
//
//lpm:allocfree — the rejection branch excepted.
func (e indexEngine) CheckBox(b Box) error {
	ix := e.ix
	if ix.store != nil {
		return ix.store.CheckBox(b)
	}
	d := ix.grid.D()
	if len(b.Start) != d || len(b.Dims) != d {
		//lpm:allocok — error branch; a valid box never reaches it.
		return fmt.Errorf("spectrallpm: box arity %d/%d, want %d: %w", len(b.Start), len(b.Dims), d, ErrDimensionMismatch)
	}
	return nil
}

// AppendBoxRanks appends the sorted ranks of the indexed points inside the
// already-validated box [start, start+dims) to dst. Full-grid indexes
// delegate to the storage box engine; point-set indexes probe the
// rank-order packed R-tree (matches stream out in ascending rank because
// leaves hold consecutive rank runs). sc supplies rectangle and point-id
// scratch for the probe.
//
//lpm:ctxaware — grid boxes poll in the storage engine; the R-tree probe polls once up front
//lpm:allocfree
func (e indexEngine) AppendBoxRanks(dst []int, start, dims []int, sc *serve.Scratch) []int {
	ix := e.ix
	if ix.store != nil {
		// The box passed CheckBox, so the engine cannot reject it.
		if sc.Ctx == nil {
			return ix.store.AppendValidatedBoxRanks(dst, start, dims)
		}
		dst, err := ix.store.AppendValidatedBoxRanksCtx(sc.Ctx, dst, start, dims)
		if err != nil {
			sc.Err = err
		}
		return dst
	}
	if sc.Ctx != nil {
		// The R-tree probe has no chunk boundaries to poll at; one check
		// up front keeps an already-dead request from paying for it.
		if err := sc.Ctx.Err(); err != nil {
			sc.Err = err
			return dst
		}
	}
	for _, w := range dims {
		if w < 1 {
			return dst // empty box matches nothing
		}
	}
	if ix.rt == nil {
		return dst // empty point set (loadable via ReadIndex)
	}
	d := ix.grid.D()
	if cap(sc.Min) < d {
		sc.Min = make([]int, d)
		sc.Max = make([]int, d)
	}
	sc.Min, sc.Max = sc.Min[:d], sc.Max[:d]
	for i := range start {
		sc.Min[i] = start[i]
		sc.Max[i] = start[i] + dims[i] - 1
	}
	sc.Pids, _ = ix.rt.SearchAppend(rtree.Rect{Min: sc.Min, Max: sc.Max}, sc.Pids[:0])
	//lpm:ctxok — copy-out of an already-completed probe; pre-polled above
	for _, pid := range sc.Pids {
		dst = append(dst, ix.rank[pid])
	}
	return dst
}

// EmitCoords yields (rank, coords) for each rank, translating through the
// mapping's inverse permutation (grids) or the point table (point sets)
// into the reused coords buffer.
//
//lpm:allocfree
func (e indexEngine) EmitCoords(ranks []int, coords []int, yield func(int, []int) bool) {
	ix := e.ix
	if ix.mapping != nil {
		verts := ix.mapping.Verts()
		for _, r := range ranks {
			if !yield(r, ix.grid.Coords(verts[r], coords)) {
				return
			}
		}
		return
	}
	for _, r := range ranks {
		copy(coords, ix.pts[ix.vert[r]])
		if !yield(r, coords) {
			return
		}
	}
}

func (e indexEngine) Pager() *storage.Pager { return e.ix.pager }
func (e indexEngine) D() int                { return e.ix.grid.D() }
func (e indexEngine) Parallelism() int      { return e.ix.par }

// initCore arms the shared serving core — the last step of every Index
// construction path (Build, ReadIndex, OpenMapped). OpenMapped re-arms it
// after attaching the lifecycle so the core's borrow brackets see it.
func (ix *Index) initCore() {
	ix.core = serve.NewCore(indexEngine{ix}, ix.lc)
}

// coordsAt fills dst (len D) with the coordinates of the point at rank r —
// the translation step shared with the sharded engine, which adds the
// shard origin afterwards.
//
//lpm:allocfree
func (ix *Index) coordsAt(r int, dst []int) {
	if ix.mapping != nil {
		ix.grid.Coords(ix.mapping.Verts()[r], dst)
		return
	}
	copy(dst, ix.pts[ix.vert[r]])
}

// Close releases the mapped byte region backing an index opened with
// OpenMapped. It is safe against in-flight queries: Close first latches the
// index closed — queries that have not yet touched the mapped bytes fail
// with ErrIndexClosed — then blocks until the last in-flight query releases
// its borrow, and only then unmaps. Close is idempotent and safe to call
// from multiple goroutines; every call returns the unmap's result. For
// built, read, or materialized indexes Close is a no-op.
func (ix *Index) Close() error {
	if ix.closeFn == nil {
		return nil
	}
	ix.closeOnce.Do(func() {
		if ix.lc != nil {
			ix.lc.CloseAndWait()
		}
		ix.closeErr = ix.closeFn()
	})
	return ix.closeErr
}

// Scan streams the points of an axis-aligned box query in 1-D rank order —
// the order a storage medium would deliver them in. For full-grid indexes
// the box must lie inside the grid (ErrDimensionMismatch otherwise); for
// point-set indexes any box of the right arity is allowed and only indexed
// points match. The box is validated (and copied) before Scan returns, so
// the caller may reuse its Box slices immediately.
//
// Buffer-reuse contract: each iteration yields a rank and the coordinates
// of the point at that rank in a buffer that is REUSED by the next
// iteration — copy the slice if it must outlive the loop body. The returned
// sequence is single-use: iterate it at most once. Its scratch returns to a
// shared pool when iteration ends, so iterating a second time is a data
// race that may observe a concurrent query's results — treat a consumed
// sequence like a freed buffer. The rank scratch itself is acquired lazily
// on first iteration, so a sequence that is obtained but never iterated
// strands no pooled rank buffers — it holds only a small shell the garbage
// collector reclaims. Scan performs no steady-state heap allocations;
// ScanInto offers the same contract in callback form.
//
//lpm:allocfree
func (ix *Index) Scan(b Box) (iter.Seq2[int, []int], error) {
	return ix.core.Scan(b)
}

// ScanInto is Scan in callback form: yield is called once per matching
// point in ascending rank order until it returns false. The coords slice
// passed to yield is reused between calls — copy it if it must survive.
// ScanInto is the allocation-free core of the scanning path.
//
//lpm:allocfree
func (ix *Index) ScanInto(b Box, yield func(rank int, coords []int) bool) error {
	return ix.core.ScanInto(b, yield)
}

// ScanIntoContext is ScanInto under a request context: cancellation is
// checked before any pooled scratch is acquired (an already-dead request
// does no work and touches no pool) and again at the engine's chunk
// boundaries mid-query, so a disconnected client stops burning CPU inside
// a large box. A mapped index whose Close has begun returns ErrIndexClosed
// before touching its bytes. ctx may be nil.
//
//lpm:allocfree
func (ix *Index) ScanIntoContext(ctx context.Context, b Box, yield func(rank int, coords []int) bool) error {
	return ix.core.ScanIntoCtx(ctx, b, yield)
}

// Pages returns the page-run plan of a box query: the distinct pages
// holding results, grouped into maximal contiguous runs sorted by start
// page — the sequential reads an I/O-aware executor would issue.
func (ix *Index) Pages(b Box) ([]PageRun, error) {
	return ix.core.PagesInto(b, nil)
}

// PagesInto is Pages appending to dst, so a serving loop can reuse one plan
// buffer across queries; with sufficient capacity it performs zero
// steady-state heap allocations.
//
//lpm:allocfree
func (ix *Index) PagesInto(b Box, dst []PageRun) ([]PageRun, error) {
	return ix.core.PagesInto(b, dst)
}

// PagesIntoContext is PagesInto under a request context — see
// ScanIntoContext for the cancellation and closed-index contract.
//
//lpm:allocfree
func (ix *Index) PagesIntoContext(ctx context.Context, b Box, dst []PageRun) ([]PageRun, error) {
	return ix.core.PagesIntoCtx(ctx, b, dst)
}

// QueryIO returns the simulated I/O cost of a box query (distinct pages,
// seeks, scan span). It allocates nothing in steady state.
//
//lpm:allocfree
func (ix *Index) QueryIO(b Box) (IOStats, error) {
	return ix.core.QueryIO(b)
}

// QueryIOContext is QueryIO under a request context — see ScanIntoContext
// for the cancellation and closed-index contract.
//
//lpm:allocfree
func (ix *Index) QueryIOContext(ctx context.Context, b Box) (IOStats, error) {
	return ix.core.QueryIOCtx(ctx, b)
}

// QueryBatch answers one QueryIO per box, fanning the slice across the
// index's parallelism (WithParallelism at Build; GOMAXPROCS when unset or
// zero). Results are positional: stats[i] answers boxes[i]. The first bad
// box (lowest index) reports its error and discards the batch, under both
// the serial and the parallel worker paths.
func (ix *Index) QueryBatch(boxes []Box) ([]IOStats, error) {
	return ix.core.QueryBatch(boxes)
}

// QueryBatchContext is QueryBatch under a request context: the context
// threads into every parallel worker, so one expired deadline stops the
// whole fan-out at the next engine chunk boundary instead of finishing the
// remaining boxes for a client that is gone.
func (ix *Index) QueryBatchContext(ctx context.Context, boxes []Box) ([]IOStats, error) {
	return ix.core.QueryBatchCtx(ctx, boxes)
}
