// The worker side of the cluster: ShardView scopes one shard of a
// sharded v2 container to the standard serving surface, in the GLOBAL
// coordinate and rank frame. Ranks a worker returns are global ranks
// (local rank + the shard's rank offset), coordinates are global
// coordinates (local + the shard's origin), and page runs are computed
// against the global pager — so the router can merge per-worker answers
// without re-translating anything, and a worker's answer for its slice
// of a query is bit-identical to the monolithic ShardedIndex's
// contribution from that shard.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// ShardView is one shard of a mapped sharded index, presented as a
// server.Queryable in the global frame. It owns the underlying
// ShardedIndex mapping (Close closes it), even though it only ever
// queries one shard — the other shards' pages are mapped but never
// touched, so the resident cost is one shard plus the container header.
type ShardView struct {
	sx      *spectrallpm.ShardedIndex
	ix      *spectrallpm.Index // shard's own index, LOCAL ranks and coords
	shardID int
	points  bool
	d       int
	dims    []int
	lo, hi  []int // inclusive global bounding box of this shard
	origin  []int // local coordinate c serves global coordinate c+origin
	offset  int   // global rank block is [offset, offset+records)
	records int
	totalN  int
	pager   *storage.Pager // GLOBAL rank space: page runs compose across workers
}

// NewShardView scopes shard shardID of sx. The view takes ownership of
// sx on success (its Close closes sx).
func NewShardView(sx *spectrallpm.ShardedIndex, shardID int) (*ShardView, error) {
	if shardID < 0 || shardID >= sx.NumShards() {
		return nil, fmt.Errorf("cluster: shard %d outside [0,%d)", shardID, sx.NumShards())
	}
	lo, hi, offset, records := sx.ShardBounds(shardID)
	pager, err := storage.NewPager(sx.N(), sx.RecordsPerPage())
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d pager: %w", shardID, err)
	}
	return &ShardView{
		sx:      sx,
		ix:      sx.Shard(shardID),
		shardID: shardID,
		points:  sx.PointSet(),
		d:       sx.D(),
		dims:    sx.Dims(),
		lo:      lo,
		hi:      hi,
		origin:  sx.ShardOrigin(shardID),
		offset:  offset,
		records: records,
		totalN:  sx.N(),
		pager:   pager,
	}, nil
}

// OpenShardWorker opens path as a sharded v2 container and scopes it to
// one shard — the server.Config.Open hook for `lpmserve -role worker`,
// so SIGHUP hot reloads re-scope the replacement file to the same shard.
func OpenShardWorker(path string, shardID int) (server.Queryable, error) {
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err != nil {
		return nil, err
	}
	v, err := NewShardView(sx, shardID)
	if err != nil {
		sx.Close()
		return nil, err
	}
	return v, nil
}

// ShardID returns which shard of the container this view serves.
func (v *ShardView) ShardID() int { return v.shardID }

// N reports the records THIS WORKER serves (its shard), not the
// container total — /healthz and /stats describe the worker itself.
// TotalN reports the container total the rank frame is scoped to.
func (v *ShardView) N() int      { return v.records }
func (v *ShardView) TotalN() int { return v.totalN }

// D, Dims, RecordsPerPage and NumPages describe the GLOBAL frame: the
// grid shape and page geometry are properties of the whole index, and
// the router cross-checks every worker reports the same ones.
func (v *ShardView) D() int              { return v.d }
func (v *ShardView) Dims() []int         { return append([]int(nil), v.dims...) }
func (v *ShardView) RecordsPerPage() int { return v.pager.RecordsPerPage() }
func (v *ShardView) NumPages() int       { return v.pager.NumPages() }

// Rank answers with the GLOBAL rank. Points outside this shard's bounds
// answer ErrPointNotIndexed — for a grid that means "ask the owning
// shard", for a point set it means "not here" (the router treats
// overlapping point-shard boxes as a candidate list and keeps asking).
func (v *ShardView) Rank(coords ...int) (int, error) {
	if len(coords) != v.d {
		return 0, fmt.Errorf("cluster: coordinate arity %d, want %d: %w", len(coords), v.d, spectrallpm.ErrDimensionMismatch)
	}
	for i, c := range coords {
		if c < 0 || c >= v.dims[i] {
			if !v.points {
				return 0, fmt.Errorf("cluster: coordinate %d outside [0,%d): %w", c, v.dims[i], spectrallpm.ErrDimensionMismatch)
			}
			return 0, fmt.Errorf("cluster: point %v not indexed: %w", coords, spectrallpm.ErrPointNotIndexed)
		}
	}
	for i, c := range coords {
		if c < v.lo[i] || c > v.hi[i] {
			return 0, fmt.Errorf("cluster: point %v outside shard %d bounds: %w", coords, v.shardID, spectrallpm.ErrPointNotIndexed)
		}
	}
	var buf [8]int
	local := buf[:]
	if v.d > len(buf) {
		local = make([]int, v.d)
	} else {
		local = local[:v.d]
	}
	for i, c := range coords {
		local[i] = c - v.origin[i]
	}
	r, err := v.ix.Rank(local...)
	if err != nil {
		return 0, err
	}
	return r + v.offset, nil
}

// Point answers the point at a GLOBAL rank. Ranks outside this shard's
// block [offset, offset+records) answer ErrRankOutOfRange even when they
// are valid ranks of the whole index: a worker only vouches for its own
// block, and the router routes each rank to its owner by offset.
func (v *ShardView) Point(rank int) ([]int, error) {
	if rank < v.offset || rank >= v.offset+v.records {
		return nil, fmt.Errorf("cluster: rank %d outside shard %d block [%d,%d): %w",
			rank, v.shardID, v.offset, v.offset+v.records, spectrallpm.ErrRankOutOfRange)
	}
	p, err := v.ix.Point(rank - v.offset)
	if err != nil {
		return nil, err
	}
	for j := range p {
		p[j] += v.origin[j]
	}
	return p, nil
}

// validateBox mirrors the monolithic ShardedIndex's validation over the
// GLOBAL grid, so a worker rejects exactly the boxes the monolith would
// — the router relies on this agreement when it passes 4xx through.
func (v *ShardView) validateBox(b spectrallpm.Box) error {
	if len(b.Start) != v.d || len(b.Dims) != v.d {
		return fmt.Errorf("cluster: box arity %d/%d, want %d: %w", len(b.Start), len(b.Dims), v.d, spectrallpm.ErrDimensionMismatch)
	}
	if v.points {
		return nil
	}
	for i, st := range b.Start {
		if b.Dims[i] < 1 || st < 0 || st+b.Dims[i] > v.dims[i] {
			return fmt.Errorf("cluster: box %v exceeds grid %v: %w", b, v.dims, spectrallpm.ErrDimensionMismatch)
		}
	}
	return nil
}

// ScanIntoContext yields this shard's slice of the box in ascending
// GLOBAL rank order with GLOBAL coordinates. The coords slice is reused
// between yields, like every scan in the repo.
func (v *ShardView) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error {
	if err := v.validateBox(b); err != nil {
		return err
	}
	return v.scanClipped(ctx, b, yield)
}

// scanClipped clips the (already validated) box to the shard bounds,
// translates it to local coordinates, scans the shard engine, and
// translates each hit back to the global frame in place.
func (v *ShardView) scanClipped(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error {
	cs := getCoordScratch(v.d)
	defer cs.put()
	start, dims := cs.start, cs.dims
	if !shard.ClipBox(b.Start, b.Dims, v.lo, v.hi, start, dims) {
		return nil // box misses this shard entirely
	}
	for j := range start {
		start[j] -= v.origin[j]
	}
	return v.ix.ScanIntoContext(ctx, spectrallpm.Box{Start: start, Dims: dims},
		func(rank int, coords []int) bool {
			// The engine rewrites every entry of coords on each yield, so
			// translating in place cannot leak into the next row.
			for j := range coords {
				coords[j] += v.origin[j]
			}
			return yield(rank+v.offset, coords)
		})
}

// collectRanks gathers the shard's GLOBAL ranks for a box into dst
// (ascending — the scan yields in rank order).
func (v *ShardView) collectRanks(ctx context.Context, b spectrallpm.Box, dst []int) ([]int, error) {
	err := v.scanClipped(ctx, b, func(rank int, _ []int) bool {
		dst = append(dst, rank)
		return true
	})
	return dst, err
}

// PagesIntoContext plans this shard's page runs for a box against the
// GLOBAL pager, so run page numbers agree with the monolithic plan and
// the router can coalesce runs across workers.
func (v *ShardView) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	if err := v.validateBox(b); err != nil {
		return dst, err
	}
	rs := getRankScratch()
	defer rs.put()
	ranks, err := v.collectRanks(ctx, b, rs.ranks[:0])
	rs.ranks = ranks
	if err != nil {
		return dst, err
	}
	return v.pager.RunsAppend(dst, ranks)
}

// QueryIOContext computes this shard's I/O stats for a box in the GLOBAL
// page space. Note cross-shard seek/span composition happens at the
// router (stats are not additive), so this is mostly useful for
// inspecting one worker in isolation.
func (v *ShardView) QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error) {
	if err := v.validateBox(b); err != nil {
		return spectrallpm.IOStats{}, err
	}
	rs := getRankScratch()
	defer rs.put()
	ranks, err := v.collectRanks(ctx, b, rs.ranks[:0])
	rs.ranks = ranks
	if err != nil {
		return spectrallpm.IOStats{}, err
	}
	return v.pager.QueryIO(ranks)
}

// QueryBatchContext runs QueryIOContext per box, validating every box
// before touching any (matching the monolithic all-or-nothing contract).
func (v *ShardView) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	for _, b := range boxes {
		if err := v.validateBox(b); err != nil {
			return nil, err
		}
	}
	out := make([]spectrallpm.IOStats, len(boxes))
	for i, b := range boxes {
		st, err := v.QueryIOContext(ctx, b)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// Close releases the whole mapped container.
func (v *ShardView) Close() error { return v.sx.Close() }

// rankScratch pools the rank-gathering buffer the pages/batch paths fill
// per request, keeping the worker's steady-state serving loop off the
// allocator like the single-node daemon.
type rankScratch struct{ ranks []int }

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// getRankScratch leases a rank buffer; release with put.
//
//lpm:poolget
func getRankScratch() *rankScratch { return rankScratchPool.Get().(*rankScratch) }

func (rs *rankScratch) put() { rankScratchPool.Put(rs) }

// coordScratch pools the clipped-box start/dims pair scanClipped needs
// per request.
type coordScratch struct{ start, dims []int }

var coordScratchPool = sync.Pool{New: func() any { return new(coordScratch) }}

// getCoordScratch leases a start/dims pair of length d; release with put.
//
//lpm:poolget
func getCoordScratch(d int) *coordScratch {
	cs := coordScratchPool.Get().(*coordScratch)
	if cap(cs.start) < d {
		cs.start = make([]int, d)
		cs.dims = make([]int, d)
	}
	cs.start = cs.start[:d]
	cs.dims = cs.dims[:d]
	return cs
}

func (cs *coordScratch) put() { coordScratchPool.Put(cs) }

// WorkerRoutes is the server.Config.Routes hook for worker daemons: it
// exposes GET /v1/shardinfo, the geometry handshake the router bootstraps
// from. It reads the CURRENT index handle per request, so the advertised
// geometry tracks hot reloads.
func WorkerRoutes(s *server.Server, mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shardinfo", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Index().(*ShardView)
		if !ok {
			http.Error(w, "not a shard worker", http.StatusInternalServerError)
			return
		}
		ps := server.GetProto()
		defer ps.Put()
		ps.Buf = append(ps.Buf, `{"shard":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.shardID)
		ps.Buf = append(ps.Buf, `,"points":`...)
		if v.points {
			ps.Buf = append(ps.Buf, `true`...)
		} else {
			ps.Buf = append(ps.Buf, `false`...)
		}
		ps.Buf = append(ps.Buf, `,"d":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.d)
		ps.Buf = append(ps.Buf, `,"dims":`...)
		ps.Buf = server.AppendIntArray(ps.Buf, v.dims)
		ps.Buf = append(ps.Buf, `,"lo":`...)
		ps.Buf = server.AppendIntArray(ps.Buf, v.lo)
		ps.Buf = append(ps.Buf, `,"hi":`...)
		ps.Buf = server.AppendIntArray(ps.Buf, v.hi)
		ps.Buf = append(ps.Buf, `,"rank_offset":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.offset)
		ps.Buf = append(ps.Buf, `,"records":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.records)
		ps.Buf = append(ps.Buf, `,"total_records":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.totalN)
		ps.Buf = append(ps.Buf, `,"records_per_page":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.pager.RecordsPerPage())
		ps.Buf = append(ps.Buf, '}')
		w.Header().Set("Content-Type", "application/json")
		w.Write(ps.Buf)
	})
}
