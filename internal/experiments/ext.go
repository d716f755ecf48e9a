package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/spectral-lpm/spectrallpm/internal/decluster"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/metrics"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// ExtAffinity quantifies the paper's §4 extensibility claim: given
// knowledge that certain point pairs are accessed together, adding affinity
// edges with increasing weight pulls those pairs together in the 1-D order.
// The figure sweeps the affinity weight and reports the frequency-weighted
// mean rank gap of the hot pairs; Hilbert and unmodified Spectral appear as
// flat reference series (they cannot exploit the access pattern).
func ExtAffinity(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	const side = 16
	const nPairs = 12
	g, err := graph.NewGrid(side, side)
	if err != nil {
		return nil, err
	}
	pairs, err := workload.CorrelatedTrace(g, nPairs, 101)
	if err != nil {
		return nil, err
	}
	weighted := func(m *order.Mapping) float64 {
		var s, f float64
		for _, p := range pairs {
			s += p.Freq * float64(abs(m.Rank(p.A)-m.Rank(p.B)))
			f += p.Freq
		}
		return s / f
	}
	hilbert, err := order.New("hilbert", g, order.SpectralConfig{Solver: cfg.Solver})
	if err != nil {
		return nil, err
	}
	base, err := order.New("spectral", g, order.SpectralConfig{Solver: cfg.Solver})
	if err != nil {
		return nil, err
	}
	weights := []float64{0, 1, 2, 4, 8, 16, 32}
	fig := &Figure{
		ID:     "ext-affinity",
		Title:  fmt.Sprintf("§4 affinity edges: %d Zipf hot pairs on a %dx%d grid", nPairs, side, side),
		XLabel: "affinity edge weight (x pair frequency / max frequency)",
		YLabel: "frequency-weighted mean rank gap of hot pairs",
	}
	aff := Series{Name: "Spectral+affinity"}
	hb := Series{Name: "Hilbert"}
	sp := Series{Name: "Spectral(base)"}
	maxFreq := pairs[0].Freq
	for _, w := range weights {
		var edges []order.AffinityEdge
		if w > 0 {
			for _, p := range pairs {
				edges = append(edges, order.AffinityEdge{U: p.A, V: p.B, Weight: w * p.Freq / maxFreq})
			}
		}
		m, err := order.FromSpectral(g, order.SpectralConfig{Solver: cfg.Solver, Affinity: edges})
		if err != nil {
			return nil, err
		}
		aff.X = append(aff.X, w)
		aff.Y = append(aff.Y, weighted(m))
		hb.X = append(hb.X, w)
		hb.Y = append(hb.Y, weighted(hilbert))
		sp.X = append(sp.X, w)
		sp.Y = append(sp.Y, weighted(base))
	}
	fig.Series = []Series{aff, hb, sp}
	return fig, nil
}

// IORow is one mapping's application-level costs in ExtIO.
type IORow struct {
	Label string
	// AvgPages, AvgSeeks, AvgSpanPages average the storage I/O of a
	// sliding square query (pages holding results / contiguous runs /
	// scan width in pages).
	AvgPages, AvgSeeks, AvgSpanPages float64
	// RTreeVisits is the mean R-tree nodes visited per query when the
	// tree is packed in this mapping's order.
	RTreeVisits float64
	// DeclusterImbalance is the mean parallel-I/O slowdown versus a
	// perfectly balanced multi-disk layout (1.0 is ideal).
	DeclusterImbalance float64
	// BufferHitRate is the LRU page-cache hit rate over the query stream.
	BufferHitRate float64
}

// ExtIOResult is the intro-applications comparison (paged storage, packed
// R-tree, declustering) across the mapping suite.
type ExtIOResult struct {
	Side, QuerySide, PageSize, Disks, BufferPages int
	Rows                                          []IORow
}

// Table renders the result as an aligned text table.
func (r *ExtIOResult) Table() string {
	s := fmt.Sprintf("EXT-IO — intro applications on a %dx%d grid, %dx%d queries, %d recs/page, %d disks, %d-page LRU\n",
		r.Side, r.Side, r.QuerySide, r.QuerySide, r.PageSize, r.Disks, r.BufferPages)
	s += fmt.Sprintf("%-12s%12s%12s%12s%12s%12s%12s\n",
		"mapping", "avg pages", "avg seeks", "avg span", "rtree nodes", "imbalance", "LRU hit%")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%-12s%12.3f%12.3f%12.3f%12.3f%12.3f%12.1f\n",
			row.Label, row.AvgPages, row.AvgSeeks, row.AvgSpanPages,
			row.RTreeVisits, row.DeclusterImbalance, 100*row.BufferHitRate)
	}
	return s
}

// ExtIO runs the intro-applications comparison: every mapping is used to
// (a) lay grid records on pages and answer sliding square range queries,
// (b) pack an R-tree, and (c) decluster pages round-robin across disks.
func ExtIO(cfg Config) (*ExtIOResult, error) {
	cfg = cfg.withDefaults()
	const (
		side     = 16
		qside    = 4
		pageSize = 8
		disks    = 4
		bufPages = 8
		fanout   = 8
	)
	g, err := graph.NewGrid(side, side)
	if err != nil {
		return nil, err
	}
	specs, maps, err := buildMappings(g, cfg)
	if err != nil {
		return nil, err
	}
	points := workload.FullGridPoints(g)
	res := &ExtIOResult{Side: side, QuerySide: qside, PageSize: pageSize, Disks: disks, BufferPages: bufPages}
	for _, sp := range specs {
		m := maps[sp.Label]
		store, err := storage.NewStore(m, pageSize)
		if err != nil {
			return nil, err
		}
		assign, err := decluster.RoundRobin(store.Pager().NumPages(), disks)
		if err != nil {
			return nil, err
		}
		packOrder := make([]int, m.N())
		for id := 0; id < m.N(); id++ {
			packOrder[m.Rank(id)] = id
		}
		tree, err := rtree.Pack(points, packOrder, fanout)
		if err != nil {
			return nil, err
		}
		pool, err := storage.NewBufferPool(bufPages)
		if err != nil {
			return nil, err
		}
		var row IORow
		row.Label = sp.Label
		var queries, imbalanceSum, visitSum float64
		for x := 0; x+qside <= side; x++ {
			for y := 0; y+qside <= side; y++ {
				box := workload.Box{Start: []int{x, y}, Dims: []int{qside, qside}}
				io, err := store.BoxQueryIO(box)
				if err != nil {
					return nil, err
				}
				row.AvgPages += float64(io.Pages)
				row.AvgSeeks += float64(io.Seeks)
				row.AvgSpanPages += float64(io.SpanPages)
				// Page set for declustering and the buffer pool.
				pages := map[int]bool{}
				for _, id := range workload.IDsInBox(g, box) {
					pg, err := store.Pager().Page(m.Rank(id))
					if err != nil {
						return nil, err
					}
					pages[pg] = true
				}
				pageList := make([]int, 0, len(pages))
				for p := range pages {
					pageList = append(pageList, p)
				}
				imbalanceSum += assign.QueryCost(pageList).Imbalance()
				for _, p := range pageList {
					pool.Access(p)
				}
				// R-tree window query (inclusive bounds).
				rect, err := rtree.NewRect([]int{x, y}, []int{x + qside - 1, y + qside - 1})
				if err != nil {
					return nil, err
				}
				_, visits := tree.Search(rect)
				visitSum += float64(visits)
				queries++
			}
		}
		row.AvgPages /= queries
		row.AvgSeeks /= queries
		row.AvgSpanPages /= queries
		row.RTreeVisits = visitSum / queries
		row.DeclusterImbalance = imbalanceSum / queries
		hits, misses := pool.Stats()
		row.BufferHitRate = float64(hits) / float64(hits+misses)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ExtKNN evaluates the similarity-search application the paper's
// introduction motivates: answering k-nearest-neighbor queries by scanning
// a window of the 1-D order around the query's rank. The figure sweeps the
// window size and reports mean recall of the true k nearest (Manhattan)
// neighbors per mapping — the practical payoff of a small Figure-5a value.
func ExtKNN(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	const (
		side    = 16
		k       = 6
		samples = 80
	)
	g, err := graph.NewGrid(side, side)
	if err != nil {
		return nil, err
	}
	specs, maps, err := buildMappings(g, cfg)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ext-knn",
		Title:  fmt.Sprintf("k-NN recall via 1-D rank window, %dx%d grid, k=%d", side, side, k),
		XLabel: "window (ranks scanned on each side)",
		YLabel: "mean recall of true k nearest neighbors",
	}
	for _, sp := range specs {
		s := Series{Name: sp.Label}
		for _, w := range []int{k, 2 * k, 4 * k, 8 * k} {
			st, err := metrics.NNRecall(maps[sp.Label], k, w, samples, 17)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, st.MeanRecall)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// ExtClusters reproduces the classic measurement behind the paper's
// reference [4] (Moon, Jagadish, Faloutsos, Salz, TKDE 2001): the mean
// number of contiguous 1-D clusters a square window query touches, per
// mapping. Every cluster beyond the first costs a disk seek, so this is the
// average-case complement of the paper's worst-case Figure 6.
func ExtClusters(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	const side = 16
	g, err := graph.NewGrid(side, side)
	if err != nil {
		return nil, err
	}
	specs, maps, err := buildMappings(g, cfg)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ext-clusters",
		Title:  fmt.Sprintf("Moon et al. cluster counts, %dx%d grid, square windows", side, side),
		XLabel: "query side",
		YLabel: "mean clusters (contiguous 1-D runs) per query",
	}
	for _, sp := range specs {
		s := Series{Name: sp.Label}
		for _, q := range []int{2, 3, 4, 6, 8} {
			st, err := metrics.RangeClusters(maps[sp.Label], []int{q, q})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(q))
			s.Y = append(s.Y, st.Mean)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"Moon et al. prove the Hilbert curve asymptotically optimal on this metric; spectral orders trade it for worst-case and fairness guarantees")
	return fig, nil
}

// SolverRow is one eigensolver's performance on one grid in ExtSolvers.
type SolverRow struct {
	Method   string
	N        int
	Lambda2  float64
	Residual float64
	Millis   float64
}

// ExtSolvers cross-checks the eigensolvers (the DESIGN.md EXT3 ablation):
// the block solver and, on the smallest grid, the dense Jacobi oracle solve
// the same square-grid Laplacians next to the closed-form λ₂ =
// 2(1 − cos(π/side)). The λ₂ values must agree; the timings show why the
// dense solver stays a small-graph oracle.
func ExtSolvers(cfg Config) ([]SolverRow, error) {
	cfg = cfg.withDefaults()
	var rows []SolverRow
	for _, side := range []int{12, 24, 48} {
		g := graph.GridGraph(graph.MustGrid(side, side), graph.Orthogonal)
		methods := []eigen.Method{eigen.MethodExact}
		if side <= 12 {
			methods = append(methods, eigen.MethodDense)
		}
		for _, meth := range methods {
			opt := cfg.Solver
			opt.Method = meth
			start := time.Now()
			r, err := eigen.Fiedler(g, opt)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v on %dx%d: %w", meth, side, side, err)
			}
			rows = append(rows, SolverRow{
				Method:   r.Method.String(),
				N:        side * side,
				Lambda2:  r.Value,
				Residual: r.Residual,
				Millis:   float64(time.Since(start).Microseconds()) / 1000,
			})
		}
		rows = append(rows, SolverRow{Method: "closed-form", N: side * side,
			Lambda2: 2 * (1 - math.Cos(math.Pi/float64(side)))})
	}
	return rows, nil
}
