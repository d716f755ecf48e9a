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

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/serve"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// ShardView is one shard of a mapped sharded index, presented as a
// server.Queryable in the global frame. Box, pages, I/O and batch queries
// run on the shard's serving core (ShardedIndex.ShardCore): the same
// pooled, allocation-free, cancellable bodies as Index and ShardedIndex,
// validating boxes against the global grid and planning pages from ranks
// alone. Rank and Point translate through the shard's own index. The view
// owns the underlying ShardedIndex mapping (Close closes it), even though
// it only ever queries one shard — the other shards' pages are mapped but
// never touched, so the resident cost is one shard plus the container
// header.
type ShardView struct {
	sx      *spectrallpm.ShardedIndex
	ix      *spectrallpm.Index // shard's own index, LOCAL ranks and coords
	core    serve.Core         // shard's box surface in the GLOBAL frame
	shardID int
	points  bool
	d       int
	dims    []int
	lo, hi  []int // inclusive global bounding box of this shard
	origin  []int // local coordinate c serves global coordinate c+origin
	offset  int   // global rank block is [offset, offset+records)
	records int
	totalN  int
}

// NewShardView scopes shard shardID of sx. The view takes ownership of
// sx on success (its Close closes sx).
func NewShardView(sx *spectrallpm.ShardedIndex, shardID int) (*ShardView, error) {
	if shardID < 0 || shardID >= sx.NumShards() {
		return nil, fmt.Errorf("cluster: shard %d outside [0,%d)", shardID, sx.NumShards())
	}
	lo, hi, offset, records := sx.ShardBounds(shardID)
	return &ShardView{
		sx:      sx,
		ix:      sx.Shard(shardID),
		core:    sx.ShardCore(shardID),
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
func (v *ShardView) RecordsPerPage() int { return v.sx.RecordsPerPage() }
func (v *ShardView) NumPages() int       { return v.sx.NumPages() }

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

// ScanIntoContext yields this shard's slice of the box in ascending
// GLOBAL rank order with GLOBAL coordinates. The coords slice is reused
// between yields, like every scan in the repo.
//
//lpm:allocfree
func (v *ShardView) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error {
	return v.core.ScanIntoCtx(ctx, b, yield)
}

// PagesIntoContext plans this shard's page runs for a box against the
// GLOBAL pager, so run page numbers agree with the monolithic plan and
// the router can coalesce runs across workers.
//
//lpm:allocfree
func (v *ShardView) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	return v.core.PagesIntoCtx(ctx, b, dst)
}

// QueryIOContext computes this shard's I/O stats for a box in the GLOBAL
// page space. Note cross-shard seek/span composition happens at the
// router (stats are not additive), so this is mostly useful for
// inspecting one worker in isolation.
//
//lpm:allocfree
func (v *ShardView) QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error) {
	return v.core.QueryIOCtx(ctx, b)
}

// QueryBatchContext answers QueryIOContext per box with the monolithic
// batch contract: the first bad box (lowest index) fails the whole batch.
func (v *ShardView) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	return v.core.QueryBatchCtx(ctx, boxes)
}

// Close releases the whole mapped container.
func (v *ShardView) Close() error { return v.sx.Close() }

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
		ps.Buf = server.AppendInt(ps.Buf, v.sx.RecordsPerPage())
		ps.Buf = append(ps.Buf, '}')
		w.Header().Set("Content-Type", "application/json")
		w.Write(ps.Buf)
	})
}
