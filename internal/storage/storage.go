// Package storage simulates the one-dimensional storage medium the paper's
// introduction motivates: records placed on fixed-size disk pages in the
// order a locality-preserving mapping assigns, an LRU buffer pool, and I/O
// accounting (pages touched, seeks, scan spans) for range queries. It turns
// the abstract "rank distance" the metrics package measures into concrete
// page-I/O differences between mappings.
package storage

import (
	"context"
	"fmt"
	"slices"

	"github.com/spectral-lpm/spectrallpm/internal/errs"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// Pager maps record ranks to fixed-size pages: the record at rank r lives
// on page r / RecordsPerPage.
type Pager struct {
	numRecords     int
	recordsPerPage int
	numPages       int
}

// NewPager returns a pager for numRecords records at recordsPerPage records
// per page.
func NewPager(numRecords, recordsPerPage int) (*Pager, error) {
	if numRecords < 0 {
		return nil, fmt.Errorf("storage: negative record count %d", numRecords)
	}
	if recordsPerPage < 1 {
		return nil, fmt.Errorf("storage: records per page %d < 1", recordsPerPage)
	}
	// Divide before rounding: the textbook (n + per - 1) / per ceiling wraps
	// when numRecords sits near MaxInt and per is large — record counts
	// reach this constructor from untrusted index files.
	numPages := numRecords / recordsPerPage
	if numRecords%recordsPerPage != 0 {
		numPages++
	}
	return &Pager{
		numRecords:     numRecords,
		recordsPerPage: recordsPerPage,
		numPages:       numPages,
	}, nil
}

// Page returns the page holding the record at the given rank. A rank
// outside [0, NumRecords) returns an error wrapping errs.ErrRankOutOfRange
// (never panics: a malformed query must not crash a server).
func (p *Pager) Page(rank int) (int, error) {
	if rank < 0 || rank >= p.numRecords {
		return 0, fmt.Errorf("storage: rank %d outside [0,%d): %w", rank, p.numRecords, errs.ErrRankOutOfRange)
	}
	return rank / p.recordsPerPage, nil
}

// NumRecords returns the number of records laid on pages.
func (p *Pager) NumRecords() int { return p.numRecords }

// NumPages returns the number of pages.
func (p *Pager) NumPages() int { return p.numPages }

// RecordsPerPage returns the page capacity.
func (p *Pager) RecordsPerPage() int { return p.recordsPerPage }

// IOStats is the disk cost of answering one query.
type IOStats struct {
	// Pages is the number of distinct pages holding query results — the
	// selective (index-driven) read cost.
	Pages int
	// Seeks is the number of contiguous page runs; each run beyond the
	// first costs a random seek (Moon et al.'s cluster count at page
	// granularity).
	Seeks int
	// SpanPages is maxPage − minPage + 1 — the sequential-scan cost of
	// reading from the first to the last result page, the access pattern
	// the paper's Figure 6 measures (smaller span, shorter scan).
	SpanPages int
}

// PageRun is a maximal run of contiguous pages a query touches — the unit
// of sequential I/O an executor can issue as one read.
type PageRun struct {
	// Start is the first page of the run.
	Start int
	// Pages is the run length in pages (always >= 1).
	Pages int
}

// Runs returns the page-run plan for a query whose results live at the
// given ranks: the distinct pages holding results, grouped into maximal
// contiguous runs and sorted by start page. An empty rank set plans
// nothing; an out-of-range rank returns an error wrapping
// errs.ErrRankOutOfRange.
func (p *Pager) Runs(ranks []int) ([]PageRun, error) {
	return p.RunsAppend(nil, ranks)
}

// RunsAppend is Runs appending to dst, so a serving loop can reuse one
// []PageRun across queries without allocating. Validation is hoisted out of
// the per-rank loop: sorted input (the common case — box-query engines emit
// ranks in ascending order) is range-checked by its endpoints and folded
// into runs in one linear pass with no page buffer and no sort; unsorted
// input is sorted into pooled scratch first.
func (p *Pager) RunsAppend(dst []PageRun, ranks []int) ([]PageRun, error) {
	if len(ranks) == 0 {
		return dst, nil
	}
	ranks, sc, err := p.sortedRanks(ranks)
	if sc != nil {
		defer boxScratchPool.Put(sc)
	}
	if err != nil {
		return dst, err
	}
	prev := -1
	for _, r := range ranks {
		pg := r / p.recordsPerPage
		switch {
		case pg == prev:
			// Another record on the current page.
		case prev >= 0 && pg == prev+1:
			dst[len(dst)-1].Pages++
		default:
			dst = append(dst, PageRun{Start: pg, Pages: 1})
		}
		prev = pg
	}
	return dst, nil
}

// sortedRanks returns ranks in ascending order, range-checked once against
// [0, NumRecords). Already-sorted input (detected in one scan) is returned
// as-is; otherwise it is copied into pooled scratch and sorted there, and
// the scratch holder is returned for the caller to release.
func (p *Pager) sortedRanks(ranks []int) ([]int, *boxScratch, error) {
	sorted := true
	for i := 1; i < len(ranks); i++ {
		if ranks[i] < ranks[i-1] {
			sorted = false
			break
		}
	}
	var sc *boxScratch
	if !sorted {
		sc = boxScratchPool.Get().(*boxScratch)
		sc.ranks = append(sc.ranks[:0], ranks...)
		slices.Sort(sc.ranks)
		ranks = sc.ranks
	}
	if lo := ranks[0]; lo < 0 {
		return ranks, sc, fmt.Errorf("storage: rank %d outside [0,%d): %w", lo, p.numRecords, errs.ErrRankOutOfRange)
	}
	if hi := ranks[len(ranks)-1]; hi >= p.numRecords {
		return ranks, sc, fmt.Errorf("storage: rank %d outside [0,%d): %w", hi, p.numRecords, errs.ErrRankOutOfRange)
	}
	return ranks, sc, nil
}

// QueryIO computes the I/O statistics for a query whose results live at the
// given ranks, in a single allocation-free pass (no page-run plan is
// materialized). An empty rank set costs nothing; an out-of-range rank
// returns an error wrapping errs.ErrRankOutOfRange.
func (p *Pager) QueryIO(ranks []int) (IOStats, error) {
	if len(ranks) == 0 {
		return IOStats{}, nil
	}
	ranks, sc, err := p.sortedRanks(ranks)
	if sc != nil {
		defer boxScratchPool.Put(sc)
	}
	if err != nil {
		return IOStats{}, err
	}
	var st IOStats
	first := ranks[0] / p.recordsPerPage
	prev := -1
	for _, r := range ranks {
		pg := r / p.recordsPerPage
		if pg == prev {
			continue
		}
		st.Pages++
		if prev < 0 || pg > prev+1 {
			st.Seeks++
		}
		prev = pg
	}
	st.SpanPages = prev - first + 1
	return st, nil
}

// Store couples a mapping with a pager so grid range queries can be costed
// directly. NewStore precomputes the rank-ordered layout the box-query
// engine consults, so every query after build is allocation-free (pooled
// scratch) and sort-free on the common path.
type Store struct {
	mapping *order.Mapping
	pager   *Pager
	layout  *rankLayout
}

// NewStore lays the mapping's grid points on pages in rank order, building
// an owned frame (the packed row layout is computed here): the frame is
// assembled in this function from the mapping's own slices, and nothing is
// mapped yet at build time.
//
//lpm:ownsframe
func NewStore(m *order.Mapping, recordsPerPage int) (*Store, error) {
	f := Frame{Rank: m.Ranks(), Vert: m.Verts()}
	f.Rows = BuildRows(m.Grid(), f.Rank)
	return NewStoreFromFrame(m, f, recordsPerPage)
}

// NewStoreFromFrame attaches a store to an existing frame without
// rebuilding the row layout — the zero-copy open path for indexes whose
// frame is borrowed from a read-only mapped region. The frame must be
// internally consistent (rank a permutation, rows exactly BuildRows of
// rank); the codec validates borrowed frames before they reach here.
func NewStoreFromFrame(m *order.Mapping, f Frame, recordsPerPage int) (*Store, error) {
	p, err := NewPager(m.N(), recordsPerPage)
	if err != nil {
		return nil, err
	}
	return &Store{mapping: m, pager: p, layout: newRankLayout(m.Grid(), f)}, nil
}

// Frame returns the store's flat serving state — the slices the v2 codec
// persists. The slices must be treated as read-only.
func (s *Store) Frame() Frame {
	return Frame{Rank: s.layout.rank, Vert: s.mapping.Verts(), Rows: s.layout.rows}
}

// Mapping returns the underlying mapping.
func (s *Store) Mapping() *order.Mapping { return s.mapping }

// Pager returns the underlying pager.
func (s *Store) Pager() *Pager { return s.pager }

// CheckBox validates a box against the store's grid without running the
// query: full arity on both Start and Dims, every side at least 1, and the
// whole box inside the grid. Callers that defer the actual scan (lazy
// iterators, shard planners) use it to fail fast at request time.
func (s *Store) CheckBox(b workload.Box) error { return s.checkBox(b) }

// checkBox validates a box against the store's grid.
func (s *Store) checkBox(b workload.Box) error {
	g := s.mapping.Grid()
	if len(b.Start) != g.D() || len(b.Dims) != g.D() {
		return fmt.Errorf("storage: box arity %d/%d, grid %d: %w", len(b.Start), len(b.Dims), g.D(), errs.ErrDimensionMismatch)
	}
	for i, st := range b.Start {
		if b.Dims[i] < 1 || st < 0 || st+b.Dims[i] > g.Dims()[i] {
			return fmt.Errorf("storage: box %v exceeds grid %v: %w", b, g.Dims(), errs.ErrDimensionMismatch)
		}
	}
	return nil
}

// BoxRanks returns the 1-D ranks of the grid points inside the box, in
// ascending rank order — the scan order a serving path streams results in.
func (s *Store) BoxRanks(b workload.Box) ([]int, error) {
	return s.BoxRanksAppend(nil, b)
}

// BoxRanksAppend is BoxRanks appending to dst, so a serving loop can reuse
// one rank buffer across queries without allocating.
func (s *Store) BoxRanksAppend(dst []int, b workload.Box) ([]int, error) {
	if err := s.checkBox(b); err != nil {
		return dst, err
	}
	return s.AppendValidatedBoxRanks(dst, b.Start, b.Dims), nil
}

// AppendValidatedBoxRanks appends the ascending ranks of the cells inside
// a box that already passed CheckBox, skipping re-validation — the hot
// path of serving cores that validate once at request time. All scratch is
// pooled; with sufficient dst capacity it allocates nothing.
func (s *Store) AppendValidatedBoxRanks(dst []int, start, dims []int) []int {
	sc := boxScratchPool.Get().(*boxScratch)
	dst = s.layout.appendBoxRanks(dst, start, dims, sc)
	boxScratchPool.Put(sc)
	return dst
}

// AppendValidatedBoxRanksCtx is AppendValidatedBoxRanks under a request
// context: the engine polls ctx at its chunk boundaries (per gathered slab,
// per filtered row — never mid-bitmap) and stops early when the request is
// dead. On a non-nil error the appended region's contents are unspecified
// and the caller must discard them; dst's backing buffer is still returned
// so an amortized buffer survives cancellation.
//
//lpm:ctxaware — arms the scratch poll budget and delegates to the engine
func (s *Store) AppendValidatedBoxRanksCtx(ctx context.Context, dst []int, start, dims []int) ([]int, error) {
	sc := boxScratchPool.Get().(*boxScratch)
	sc.ctx = ctx
	sc.budget = cancelCheckInterval
	dst = s.layout.appendBoxRanks(dst, start, dims, sc)
	err := sc.err
	sc.ctx, sc.err = nil, nil
	boxScratchPool.Put(sc)
	return dst, err
}

// BoxQueryIO returns the I/O cost of an axis-aligned box query without
// materializing ranks or runs for the caller (pooled scratch only).
func (s *Store) BoxQueryIO(b workload.Box) (IOStats, error) {
	if err := s.checkBox(b); err != nil {
		return IOStats{}, err
	}
	sc := boxScratchPool.Get().(*boxScratch)
	defer boxScratchPool.Put(sc)
	sc.ranks = s.layout.appendBoxRanks(sc.ranks[:0], b.Start, b.Dims, sc)
	return s.pager.QueryIO(sc.ranks)
}

// BoxRuns returns the page-run plan of an axis-aligned box query.
func (s *Store) BoxRuns(b workload.Box) ([]PageRun, error) {
	return s.BoxRunsAppend(nil, b)
}

// BoxRunsAppend is BoxRuns appending to dst, so a serving loop can reuse
// one plan buffer across queries without allocating.
func (s *Store) BoxRunsAppend(dst []PageRun, b workload.Box) ([]PageRun, error) {
	if err := s.checkBox(b); err != nil {
		return dst, err
	}
	sc := boxScratchPool.Get().(*boxScratch)
	defer boxScratchPool.Put(sc)
	sc.ranks = s.layout.appendBoxRanks(sc.ranks[:0], b.Start, b.Dims, sc)
	return s.pager.RunsAppend(dst, sc.ranks)
}

// BufferPool is an LRU page cache with hit/miss accounting, used to measure
// how well a mapping's locality translates into cache hits under correlated
// access traces.
type BufferPool struct {
	capacity int
	entries  map[int]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	hits     int64
	misses   int64
}

type lruNode struct {
	page       int
	prev, next *lruNode
}

// NewBufferPool returns an LRU pool holding up to capacity pages.
func NewBufferPool(capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d < 1", capacity)
	}
	return &BufferPool{capacity: capacity, entries: make(map[int]*lruNode, capacity)}, nil
}

// Access touches a page, returning true on a cache hit. Misses load the
// page, evicting the least recently used page when full.
func (b *BufferPool) Access(page int) bool {
	if n, ok := b.entries[page]; ok {
		b.hits++
		b.moveToFront(n)
		return true
	}
	b.misses++
	n := &lruNode{page: page}
	b.entries[page] = n
	b.pushFront(n)
	if len(b.entries) > b.capacity {
		evict := b.tail
		b.unlink(evict)
		delete(b.entries, evict.page)
	}
	return false
}

// Stats returns the accumulated hit and miss counts.
func (b *BufferPool) Stats() (hits, misses int64) { return b.hits, b.misses }

// Len returns the number of cached pages.
func (b *BufferPool) Len() int { return len(b.entries) }

// Reset clears the cache and counters.
func (b *BufferPool) Reset() {
	b.entries = make(map[int]*lruNode, b.capacity)
	b.head, b.tail = nil, nil
	b.hits, b.misses = 0, 0
}

func (b *BufferPool) pushFront(n *lruNode) {
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

func (b *BufferPool) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (b *BufferPool) moveToFront(n *lruNode) {
	if b.head == n {
		return
	}
	b.unlink(n)
	b.pushFront(n)
}
