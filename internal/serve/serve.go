// Package serve is the single serving core behind the public Index and
// ShardedIndex: the pooled, allocation-free bodies of Scan, ScanInto,
// Pages, PagesInto, QueryIO, and QueryBatch, parameterized by an Engine —
// the per-flavor frame provider (full grid, point set, or sharded
// composite) that knows how to validate a box, materialize its ascending
// ranks, and translate ranks back to coordinates. The public index types
// are thin wrappers over one Core each, so the serving semantics (box
// validation timing, the scan buffer-reuse contract, lazy rank-scratch
// acquisition, batch fan-out and first-bad-box error reporting) exist in
// exactly one place and cannot drift between the flavors — the property
// the coming daemon and coordinator/worker split program against.
package serve

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/spectral-lpm/spectrallpm/internal/errs"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// Engine is the frame-provider interface the core serves from. Every
// method must be safe for concurrent use and must not retain its slice
// arguments past the call.
type Engine interface {
	// CheckBox validates a box at request time, before any scratch is
	// acquired or work scheduled.
	CheckBox(b workload.Box) error
	// AppendBoxRanks appends the ascending ranks of the indexed points
	// inside the already-validated box [start, start+dims) to dst, using
	// sc for any scratch it needs, and returns the extended slice.
	AppendBoxRanks(dst []int, start, dims []int, sc *Scratch) []int
	// EmitCoords translates each rank to its point's coordinates (into the
	// reused coords buffer of len D()) and yields the pair, stopping early
	// when yield returns false. ranks come from AppendBoxRanks and ascend.
	EmitCoords(ranks []int, coords []int, yield func(rank int, coords []int) bool)
	// Pager is the global pager the page-plan and I/O-cost paths consult.
	Pager() *storage.Pager
	// D returns the coordinate dimensionality.
	D() int
	// Parallelism is the QueryBatch worker bound (<= 0 means GOMAXPROCS).
	Parallelism() int
}

// Core carries an engine through the shared serving bodies. The zero value
// is unusable; embed the result of NewCore.
type Core struct {
	eng Engine
	lc  *Lifecycle
}

// NewCore wraps an engine. The engine value is stored once — serving calls
// never re-box it, so interface conversion costs nothing per query. lc, when
// non-nil, reference-counts the engine's backing byte region: every serving
// body brackets its frame access with TryBorrow/EndBorrow so Close can wait
// for the last borrower before unmapping. A nil lc (built or materialized
// indexes, whose frames the garbage collector owns) skips the brackets.
func NewCore(e Engine, lc *Lifecycle) Core { return Core{eng: e, lc: lc} }

// Scratch is the pooled heavy workspace of one box query across every
// engine flavor: the rank buffer (which grows to the box's result volume),
// the rectangle and point-id scratch of the point-set R-tree probe, and
// the clip scratch of the sharded planner. One pool serves
// all flavors — a sharded engine passes the same scratch down to its
// per-shard engines, whose fields are disjoint from the planner's. It is
// acquired only for the duration of the work that needs it — inside
// PagesInto/QueryIO, or inside a Scan sequence's single iteration — so an
// obtained-but-never-iterated Scan sequence can never strand scratch.
type Scratch struct {
	// Ctx is the request context of the current query, or nil for
	// uncancellable calls. Engines poll it at chunk boundaries (run merges,
	// slab gathers) and record the cancellation in Err rather than
	// returning partial results as if they were complete.
	Ctx context.Context
	// Err is the first cancellation (or other engine) error observed while
	// materializing ranks. When set, the rank buffer's contents are
	// unspecified and the serving body must discard them.
	Err error
	// Ranks is the query's materialized ascending rank set.
	Ranks []int
	// Pids, Min, Max back the point-set R-tree probe.
	Pids []int
	Min  []int
	Max  []int
	// CStart, CDims back the sharded planner: the per-shard clipped box.
	CStart []int
	CDims  []int
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks a scratch out of the shared pool.
//
//lpm:poolget — the canonical Get wrapper; callers owe a Release on every path.
func GetScratch() *Scratch {
	return scratchPool.Get().(*Scratch)
}

// Release empties the growable buffers and returns the scratch to the
// pool, keeping capacity for the next query.
//
//lpm:allocfree
func (sc *Scratch) Release() {
	sc.Ctx = nil
	sc.Err = nil
	sc.Ranks = sc.Ranks[:0]
	scratchPool.Put(sc)
}

// scanState is the pooled lightweight shell of one in-flight Scan/ScanInto:
// the validated box copied into reusable buffers, the borrowed coordinate
// buffer the iteration yields, and a prebuilt iterator closure so a
// steady-state Scan performs zero heap allocations. The shell holds no rank
// scratch — that is acquired lazily from the scratch pool on first (and
// only) iteration, so abandoning an unconsumed sequence costs at most this
// few-words shell to the garbage collector, never a grown rank buffer.
type scanState struct {
	eng    Engine          // owning engine while a sequence is live; nil otherwise
	lc     *Lifecycle      // the core's lifecycle at arm time; nil skips borrow brackets
	ctx    context.Context // request context; nil for uncancellable scans
	start  []int           // box copy: callers may reuse their Box slices immediately
	dims   []int
	coords []int
	seq    iter.Seq2[int, []int]
}

var scanPool sync.Pool

// The pool's New is assigned in init because the iterator closure it builds
// refers back to scanPool (via release) — a package-level literal would be
// an initialization cycle.
func init() {
	scanPool.New = newScanState
}

func newScanState() any {
	s := &scanState{}
	s.seq = func(yield func(int, []int) bool) {
		// Errors (closed index, expired context) make the sequence yield
		// nothing; ScanIntoCtx calls run directly and surfaces them.
		s.run(yield)
	}
	return s
}

// run is the single iteration body behind both the Scan sequence and
// ScanInto: it borrows the frame, lazily checks the rank scratch out of the
// pool, materializes, and emits. Keeping one body means the sequence and the
// callback form cannot drift in their pooling or cancellation behavior.
//
//lpm:allocfree
func (s *scanState) run(yield func(int, []int) bool) error {
	eng := s.eng
	if eng == nil {
		// The sequence was already consumed (it is single-use); the
		// state may belong to another query by now.
		return nil
	}
	if lc := s.lc; lc != nil {
		if !lc.TryBorrow() {
			s.retire()
			return errs.ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	if ctx := s.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			// Expired before any work: no scratch was touched.
			s.retire()
			return err
		}
	}
	// The box was validated by Scan, so materializing the ranks cannot
	// fail (only be cancelled); doing it here instead of in Scan means an
	// unconsumed sequence never checks rank scratch out of the pool.
	sc := GetScratch()
	sc.Ctx = s.ctx
	sc.Ranks = eng.AppendBoxRanks(sc.Ranks[:0], s.start, s.dims, sc)
	err := sc.Err
	defer s.release(sc)
	if err != nil {
		return err
	}
	eng.EmitCoords(sc.Ranks, s.coords, yield)
	return nil
}

// release retires a consumed sequence: the heavy scratch and the shell both
// return to their pools, and the shell is disarmed so a (forbidden) second
// iteration yields nothing instead of replaying stale ranks.
//
//lpm:ownsscratch — takes over the iteration's scratch and Releases it.
//lpm:allocfree
func (s *scanState) release(sc *Scratch) {
	sc.Release()
	s.retire()
}

// retire disarms the shell and returns it to its pool — the terminal step
// of every run path, with or without scratch in hand.
//
//lpm:allocfree
func (s *scanState) retire() {
	s.eng = nil
	s.lc = nil
	s.ctx = nil
	scanPool.Put(s)
}

// arm readies the shell for a d-dimensional query over the given box,
// copying the box so the caller's slices are free for reuse the moment Scan
// returns.
//
//lpm:allocfree — the makes below fire only while buffers grow to steady state.
func (s *scanState) arm(eng Engine, b workload.Box, d int) {
	if cap(s.start) < d {
		s.start = make([]int, d)
		s.dims = make([]int, d)
	}
	s.start, s.dims = s.start[:d], s.dims[:d]
	copy(s.start, b.Start)
	copy(s.dims, b.Dims)
	if cap(s.coords) < d {
		s.coords = make([]int, d)
	}
	s.coords = s.coords[:d]
	s.eng = eng
}

// Scan validates the box, arms a pooled shell, and returns its single-use
// sequence — see the public Index.Scan for the full buffer-reuse contract.
// A sequence whose index closes (or whose ctx expires) before it is
// iterated yields nothing; use ScanIntoCtx to observe the error.
//
//lpm:allocfree
func (c Core) Scan(b workload.Box) (iter.Seq2[int, []int], error) {
	return c.ScanCtx(nil, b)
}

// ScanCtx is Scan carrying a request context the iteration will poll at
// engine chunk boundaries. ctx may be nil.
//
//lpm:allocfree
func (c Core) ScanCtx(ctx context.Context, b workload.Box) (iter.Seq2[int, []int], error) {
	s, err := c.armedScan(ctx, b)
	if err != nil {
		return nil, err
	}
	return s.seq, nil
}

// armedScan validates the box and checks an armed shell out of the pool.
//
//lpm:allocfree
func (c Core) armedScan(ctx context.Context, b workload.Box) (*scanState, error) {
	if err := c.eng.CheckBox(b); err != nil {
		return nil, err
	}
	s := scanPool.Get().(*scanState)
	s.arm(c.eng, b, c.eng.D())
	s.lc = c.lc
	s.ctx = ctx
	return s, nil
}

// ScanInto is Scan in callback form, sharing its iteration body so the two
// cannot drift.
//
//lpm:allocfree
func (c Core) ScanInto(b workload.Box, yield func(rank int, coords []int) bool) error {
	return c.ScanIntoCtx(nil, b, yield)
}

// ScanIntoCtx is ScanInto under a request context: cancellation is polled
// before any pooled scratch is acquired and again at engine chunk
// boundaries, and a closed index or expired context is reported instead of
// silently yielding nothing. ctx may be nil.
//
//lpm:allocfree
func (c Core) ScanIntoCtx(ctx context.Context, b workload.Box, yield func(rank int, coords []int) bool) error {
	s, err := c.armedScan(ctx, b)
	if err != nil {
		return err
	}
	return s.run(yield)
}

// PagesInto appends the page-run plan of a box query to dst.
//
//lpm:allocfree
func (c Core) PagesInto(b workload.Box, dst []storage.PageRun) ([]storage.PageRun, error) {
	return c.PagesIntoCtx(nil, b, dst)
}

// PagesIntoCtx is PagesInto under a request context. An expired context is
// observed before any scratch is acquired (so a dead request costs no
// pooled memory traffic) and again at engine chunk boundaries mid-query.
//
//lpm:allocfree
func (c Core) PagesIntoCtx(ctx context.Context, b workload.Box, dst []storage.PageRun) ([]storage.PageRun, error) {
	if err := c.eng.CheckBox(b); err != nil {
		return dst, err
	}
	if lc := c.lc; lc != nil {
		if !lc.TryBorrow() {
			return dst, errs.ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
	}
	sc := GetScratch()
	defer sc.Release()
	sc.Ctx = ctx
	sc.Ranks = c.eng.AppendBoxRanks(sc.Ranks[:0], b.Start, b.Dims, sc)
	if sc.Err != nil {
		return dst, sc.Err
	}
	return c.eng.Pager().RunsAppend(dst, sc.Ranks)
}

// QueryIO returns the simulated I/O cost of a box query.
//
//lpm:allocfree
func (c Core) QueryIO(b workload.Box) (storage.IOStats, error) {
	return c.QueryIOCtx(nil, b)
}

// QueryIOCtx is QueryIO under a request context, with the same
// polling points as PagesIntoCtx.
//
//lpm:allocfree
func (c Core) QueryIOCtx(ctx context.Context, b workload.Box) (storage.IOStats, error) {
	if err := c.eng.CheckBox(b); err != nil {
		return storage.IOStats{}, err
	}
	if lc := c.lc; lc != nil {
		if !lc.TryBorrow() {
			return storage.IOStats{}, errs.ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return storage.IOStats{}, err
		}
	}
	sc := GetScratch()
	defer sc.Release()
	sc.Ctx = ctx
	sc.Ranks = c.eng.AppendBoxRanks(sc.Ranks[:0], b.Start, b.Dims, sc)
	if sc.Err != nil {
		return storage.IOStats{}, sc.Err
	}
	return c.eng.Pager().QueryIO(sc.Ranks)
}

// QueryBatch answers one QueryIO per box, fanning the slice across the
// engine's parallelism. Results are positional: stats[i] answers boxes[i].
// The first bad box (lowest index) reports its error and discards the
// batch, under both the serial and the parallel worker paths.
func (c Core) QueryBatch(boxes []workload.Box) ([]storage.IOStats, error) {
	return c.QueryBatchCtx(nil, boxes)
}

// QueryBatchCtx is QueryBatch under a request context: the context threads
// into every worker's QueryIOCtx, so one expired deadline stops the whole
// fan-out at the next chunk boundary of each in-flight box instead of
// burning a worker per remaining box.
//
//lpm:ctxaware — every box runs under QueryIOCtx, which polls per chunk
func (c Core) QueryBatchCtx(ctx context.Context, boxes []workload.Box) ([]storage.IOStats, error) {
	stats := make([]storage.IOStats, len(boxes))
	if len(boxes) == 0 {
		return stats, nil
	}
	workers := c.eng.Parallelism()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(boxes) {
		workers = len(boxes)
	}
	if workers == 1 {
		for i, b := range boxes {
			var err error
			if stats[i], err = c.QueryIOCtx(ctx, b); err != nil {
				return nil, fmt.Errorf("spectrallpm: box %d: %w", i, err)
			}
		}
		return stats, nil
	}
	boxErrs := make([]error, len(boxes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(boxes) {
					return
				}
				stats[i], boxErrs[i] = c.QueryIOCtx(ctx, boxes[i])
			}
		}()
	}
	wg.Wait()
	//lpm:ctxok — post-join error scan: one comparison per box, first hit returns
	for i, err := range boxErrs {
		if err != nil {
			return nil, fmt.Errorf("spectrallpm: box %d: %w", i, err)
		}
	}
	return stats, nil
}
