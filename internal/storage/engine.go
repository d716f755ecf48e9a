// The box-query engine: a rank-ordered layout precomputed once at store
// build, consulted by every box query on the serving path.
//
// The paper's claim is that a good locality-preserving mapping clusters a
// box query's results into few contiguous 1-D runs. The naive serving path
// ignored that: it materialized every id in the box, mapped each to a rank,
// and sorted the lot — O(V log V) with several allocations per query. The
// engine instead exploits the structure the layout makes explicit:
//
//   - Every grid row (a stride-1 run of ids along the last dimension) gets
//     its ranks presorted at build time, stored as packed rank|column
//     entries in one flat []uint64. A single-row box nearly as wide as its
//     row answers by filtering that presorted row by column — no per-query
//     sort, no allocation (scratch comes from a sync.Pool).
//   - Every other box (a narrow row, or more than one row) gathers its
//     ranks by direct rank[id] lookup per slab (graph.Grid.AppendBoxRows),
//     then orders them through a span-bounded bitmap: set one bit per
//     rank, sweep only the words between the smallest and largest rank
//     seen, and rewrite the gathered region in sorted order. The sweep
//     costs rank-span/64 word reads — and the rank span of a box is exactly
//     what a locality-preserving mapping minimizes, so the better the
//     mapping, the cheaper the query: cost proportional to the result's run
//     structure, not volume·log(volume).
//   - Results whose span is too wide for the bitmap to pay off (adversarial
//     permutations) fall back to one in-place sort of the output slice —
//     still allocation-free, still far cheaper than the naive path.
package storage

import (
	"context"
	"math/bits"
	"slices"
	"sync"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// rankLayout is the precomputed rank-ordered view of a mapping's grid.
type rankLayout struct {
	grid    *graph.Grid
	rank    []int  // rank by vertex id (the mapping's flat array)
	rowLen  int    // ids per grid row (side of the last dimension)
	colBits uint   // low bits of a packed entry holding the column
	colMask uint64 // (1<<colBits)-1
	// rows holds one packed entry rank<<colBits|col per grid cell; the
	// entries of row r occupy rows[r*rowLen:(r+1)*rowLen], sorted
	// ascending. Ranks are unique, so sorting packed entries sorts by rank.
	rows []uint64
}

// newRankLayout wraps an existing frame — owned or borrowed — without
// computing anything: the frame's Rows already hold the packed presorted
// entries (BuildRows builds them for owned frames; mapped frames borrow
// and are validated by CheckRows at open).
func newRankLayout(g *graph.Grid, f Frame) *rankLayout {
	rowLen := g.RowLen()
	colBits := RowColBits(rowLen)
	return &rankLayout{
		grid:    g,
		rank:    f.Rank,
		rowLen:  rowLen,
		colBits: colBits,
		colMask: 1<<colBits - 1,
		rows:    f.Rows,
	}
}

// boxScratch is the pooled per-query workspace: the slab bases, the rank
// bitmap, plus reusable coordinate and rank buffers for callers that need
// them. All slices keep their capacity across queries. The bitmap is
// all-zero between queries (the emit sweep clears every word it reads), so
// pooled reuse needs no reset pass.
type boxScratch struct {
	bases  []int    // slab base ids
	coords []int    // odometer scratch for AppendBoxRows
	ranks  []int    // rank buffer for Runs/QueryIO callers
	bits   []uint64 // rank bitmap for the span-bounded emit

	// Cancellation state, set only on the ...Ctx query paths and cleared
	// before the scratch returns to the pool. The engine polls cancelled at
	// chunk boundaries — per gathered slab, per filtered row — but NEVER
	// between setting bitmap bits and sweeping them: an abort there would
	// strand set bits and break the all-zero pool invariant the bitmap
	// relies on, silently corrupting a later query.
	ctx    context.Context
	err    error // first ctx.Err() observed; results are garbage once set
	budget int   // work units until the next ctx.Err() poll
}

// cancelCheckInterval is how much chunk-boundary work (slab cells, row
// entries) the engine performs between ctx.Err() polls: large enough that
// the atomic load inside Err stays off the per-element path, small enough
// that a dead client stops burning CPU within microseconds.
const cancelCheckInterval = 4096

// cancelled burns cost work units from the poll budget and reports whether
// the query's context has expired. The common path (no context, budget not
// yet exhausted) is a couple of branches; only every cancelCheckInterval
// units does it reach the context.
//
//lpm:ctxaware — the poll primitive: loops satisfy the contract by calling it
//lpm:allocfree
func (sc *boxScratch) cancelled(cost int) bool {
	if sc.ctx == nil {
		return false
	}
	if sc.err != nil {
		return true
	}
	sc.budget -= cost
	if sc.budget > 0 {
		return false
	}
	return sc.cancelledSlow()
}

//lpm:ctxaware — the poll primitive's slow half; reads ctx.Err directly
//lpm:allocfree
func (sc *boxScratch) cancelledSlow() bool {
	sc.budget = cancelCheckInterval
	if err := sc.ctx.Err(); err != nil {
		sc.err = err
		return true
	}
	return false
}

// bitmap returns the rank bitmap with at least words words, all zero.
//
//lpm:allocfree — the make fires only while the pooled bitmap grows.
func (sc *boxScratch) bitmap(words int) []uint64 {
	if cap(sc.bits) < words {
		// A fresh allocation is already zero, and the dropped buffer was
		// zero by invariant — nothing to copy.
		sc.bits = make([]uint64, words)
	}
	return sc.bits[:words]
}

var boxScratchPool = sync.Pool{New: func() any { return new(boxScratch) }}

// appendBoxRanks appends the sorted ranks of the box's cells to dst and
// returns the extended slice. The box must be validated already. sc supplies
// all scratch; dst is only appended to (existing contents untouched).
//
//lpm:ctxaware — both strategies poll sc.cancelled at their chunk boundaries
//lpm:allocfree — with sufficient dst capacity the whole query is off-heap.
func (l *rankLayout) appendBoxRanks(dst []int, start, dims []int, sc *boxScratch) []int {
	width := dims[len(dims)-1]
	volume := 1
	for _, s := range dims {
		volume *= s
	}
	if cap(dst)-len(dst) < volume {
		grown := make([]int, len(dst), len(dst)+volume)
		copy(grown, dst)
		dst = grown
	}
	if l.filtersRow(width, volume) {
		return l.filterRow(dst, start, width, sc)
	}
	return l.gatherBoxRanks(dst, start, dims, sc)
}

// filtersRow is the engine's one strategy choice. A single-slab box nearly
// as wide as its row reads the presorted row and filters it by column
// (~rowLen entries, no ordering pass); every other box gathers, costing ~V
// plus a span-bounded emit, which beats reading every intersected row
// whenever there is more than one.
//
//lpm:allocfree
func (l *rankLayout) filtersRow(width, volume int) bool {
	return volume == width && l.rowLen <= width*bits.Len(uint(volume))
}

// filterRow appends the ranks of the single-slab box [start, start+width)
// by filtering its presorted grid row by column: the results stream out in
// ascending rank order with no sort.
//
//lpm:ctxaware — the whole row is billed to the poll budget before the scan
//lpm:allocfree
func (l *rankLayout) filterRow(dst, start []int, width int, sc *boxScratch) []int {
	if sc.cancelled(l.rowLen) {
		return dst
	}
	colLo := uint64(start[len(start)-1])
	colHi := colLo + uint64(width)
	rowStart := l.grid.ID(start) / l.rowLen * l.rowLen
	//lpm:ctxok — the whole row was billed to the poll budget just above
	for _, e := range l.rows[rowStart : rowStart+l.rowLen] {
		if c := e & l.colMask; c >= colLo && c < colHi {
			dst = append(dst, int(e>>l.colBits))
		}
	}
	return dst
}

// gatherBoxRanks fetches each cell's rank by direct lookup, then orders the
// appended region: through the rank bitmap when the gathered span is tight
// (the expected case under a locality-preserving mapping — the sweep costs
// span/64 word reads, proportional to the run structure the mapping
// optimizes), or one in-place sort when an adversarial order scatters the
// box across the whole rank space.
//
//lpm:ctxaware — polls per gathered slab; the emit sweep is exempted below
//lpm:allocfree
func (l *rankLayout) gatherBoxRanks(dst []int, start, dims []int, sc *boxScratch) []int {
	width := dims[len(dims)-1]
	n0 := len(dst)
	sc.bases = l.grid.AppendBoxRows(sc.bases[:0], start, dims, sc.odometer(len(dims)))
	lo, hi := int(^uint(0)>>1), -1
	for _, base := range sc.bases {
		if sc.cancelled(width) {
			return dst // contents past n0 are garbage; sc.err tells the caller
		}
		for id := base; id < base+width; id++ {
			r := l.rank[id]
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
			dst = append(dst, r)
		}
	}
	gathered := dst[n0:]
	v := len(gathered)
	if v < 2 {
		return dst
	}
	loWord, hiWord := lo>>6, hi>>6
	// Last poll before the ordering phase: the bitmap sweep must run to
	// completion once bits are set (see boxScratch), and the sort fallback
	// is equally uninterruptible, so cancellation is decided here.
	if sc.cancelled(hiWord - loWord + 1) {
		return dst
	}
	if spanWords := hiWord - loWord + 1; spanWords <= v*bits.Len(uint(v)) {
		// The bitmap is indexed relative to loWord, so its size (and the
		// pooled memory it pins) is the span, never the full rank space.
		bm := sc.bitmap(spanWords)
		for _, r := range gathered {
			bm[r>>6-loWord] |= 1 << (uint(r) & 63)
		}
		idx := 0
		// The sweep must clear every set word to restore the all-zero pool
		// invariant, and its full cost was billed to the poll above.
		//lpm:ctxok — invariant-bound sweep; cost pre-billed, must run to completion
		for w := 0; w < spanWords; w++ {
			x := bm[w]
			if x == 0 {
				continue
			}
			bm[w] = 0
			base := (w + loWord) << 6
			for x != 0 {
				gathered[idx] = base + bits.TrailingZeros64(x)
				idx++
				x &= x - 1
			}
		}
		return dst
	}
	slices.Sort(gathered)
	return dst
}

// odometer returns the reusable BoxRows scratch, sized to d.
//
//lpm:allocfree
func (sc *boxScratch) odometer(d int) []int {
	if cap(sc.coords) < d {
		sc.coords = make([]int, d)
	}
	sc.coords = sc.coords[:d]
	return sc.coords
}
