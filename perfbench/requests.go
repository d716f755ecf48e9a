package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"strconv"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// sizes fixes the inputs of every workload. The smoke test shrinks them;
// a benchmark run always uses defaultSizes.
type sizes struct {
	side      int // grid side: the grid is side × side records
	radius    int // disk radius: the point set is every (x,y) with x²+y² < radius²
	shards    int // shard workers behind the router
	requests  int // length of the seeded request list
	setupReps int // set-ups per serving run; setup_s is their median
	clients   int // closed-loop clients, one connection each
	batch     int // boxes per /v1/batch request
}

var defaultSizes = sizes{side: 1024, radius: 64, shards: 4, requests: 8192, setupReps: 5, clients: 2, batch: 16}

// opClass groups requests by endpoint and box size.
type opClass int

const (
	opLookup opClass = iota // /v1/rank and /v1/point
	opBox256                // /v1/box, 16×16
	opBox4k                 // /v1/box, 64×64
	opPages                 // /v1/pages, 64×64
	opBatch                 // /v1/batch of 32×32 boxes
	numOps
)

var opNames = [numOps]string{"lookup", "box256", "box4k", "pages", "batch"}

// mix is a request mix in percent per op class.
type mix [numOps]int

// The daemon mix holds 45% lookups rather than half: with half or just
// under, the overall median falls between the lookup latencies and the
// box latencies, where samples are sparse, and moves from run to run.
var (
	daemonMix  = mix{45, 30, 10, 10, 5}
	clusterMix = mix{20, 40, 25, 10, 5}
)

// request is one generated request: its wire form, its decoded form for
// in-process replay, and the CRC32C of the exact response bytes the
// daemon must return.
type request struct {
	op     opClass
	path   string
	body   []byte
	coords []int // /v1/rank
	rank   int   // /v1/point
	boxes  []spectrallpm.Box
	crc    uint32
	size   int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cuts lists, per axis, the coordinates c at which cells c-1 and c belong
// to different shards. A nil cuts places every box uniformly.
type cuts [][]int

// generate builds n requests of the given mix over a side×side grid. The
// list holds each op class in exactly its share of n, in seeded order, so
// the mix does not drift with the seed. When cut is non-nil, half of all
// boxes are placed across a shard cut.
func generate(seed int64, n, side, batch int, m mix, cut cuts) []*request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed_b0c5))
	var total int
	for _, p := range m {
		total += p
	}
	ops := make([]opClass, 0, n)
	for op, p := range m {
		for k := 0; k < n*p/total; k++ {
			ops = append(ops, opClass(op))
		}
	}
	for len(ops) < n {
		ops = append(ops, opLookup)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	reqs := make([]*request, n)
	for i, op := range ops {
		r := &request{op: op}
		switch op {
		case opLookup:
			if rng.IntN(2) == 0 {
				r.path = "/v1/rank"
				r.coords = []int{rng.IntN(side), rng.IntN(side)}
				r.body = fmt.Appendf(nil, `{"coords":[%d,%d]}`, r.coords[0], r.coords[1])
			} else {
				r.path = "/v1/point"
				r.rank = rng.IntN(side * side)
				r.body = fmt.Appendf(nil, `{"rank":%d}`, r.rank)
			}
		case opBox256, opBox4k, opPages:
			w := 16
			r.path = "/v1/box"
			if op != opBox256 {
				w = 64
			}
			if op == opPages {
				r.path = "/v1/pages"
			}
			r.boxes = []spectrallpm.Box{placeBox(rng, side, w, cut)}
			r.body = appendBox(nil, r.boxes[0])
		case opBatch:
			r.path = "/v1/batch"
			r.body = append(r.body, `{"boxes":[`...)
			for k := 0; k < batch; k++ {
				b := placeBox(rng, side, 32, cut)
				r.boxes = append(r.boxes, b)
				if k > 0 {
					r.body = append(r.body, ',')
				}
				r.body = appendBox(r.body, b)
			}
			r.body = append(r.body, `]}`...)
		}
		reqs[i] = r
	}
	return reqs
}

// placeBox draws a w×w box inside the grid: uniformly, or — with
// probability one half when cut is non-nil — straddling one or both cuts.
func placeBox(rng *rand.Rand, side, w int, cut cuts) spectrallpm.Box {
	start := []int{rng.IntN(side - w + 1), rng.IntN(side - w + 1)}
	if cut != nil && rng.IntN(2) == 0 {
		crossed := false
		for a := range start {
			if len(cut[a]) == 0 || rng.IntN(2) == 0 {
				continue
			}
			start[a] = straddle(rng, cut[a], side, w)
			crossed = true
		}
		if !crossed {
			for a := range start {
				if len(cut[a]) > 0 {
					start[a] = straddle(rng, cut[a], side, w)
					break
				}
			}
		}
	}
	return spectrallpm.Box{Start: start, Dims: []int{w, w}}
}

// straddle returns a start in [c-w+1, c-1] for a random cut c, so the box
// covers both c-1 and c.
func straddle(rng *rand.Rand, cs []int, side, w int) int {
	c := cs[rng.IntN(len(cs))]
	s := c - 1 - rng.IntN(w-1)
	return min(max(s, 0), side-w)
}

func appendBox(b []byte, box spectrallpm.Box) []byte {
	return fmt.Appendf(b, `{"start":[%d,%d],"dims":[%d,%d]}`, box.Start[0], box.Start[1], box.Dims[0], box.Dims[1])
}

// answer appends to ps.Buf the exact response body the daemon returns for
// r, computed in-process from q through the public server encoders.
func answer(ctx context.Context, q server.Queryable, r *request, ps *server.ProtoScratch) error {
	ps.Buf = ps.Buf[:0]
	switch r.path {
	case "/v1/rank":
		rank, err := q.Rank(r.coords...)
		if err != nil {
			return err
		}
		ps.Buf = server.AppendRankResponse(ps.Buf, rank)
	case "/v1/point":
		coords, err := q.Point(r.rank)
		if err != nil {
			return err
		}
		ps.Buf = server.AppendPointResponse(ps.Buf, coords)
	case "/v1/box":
		var countAt int
		ps.Buf, countAt = server.AppendBoxHeader(ps.Buf)
		count := 0
		err := q.ScanIntoContext(ctx, r.boxes[0], func(rank int, coords []int) bool {
			ps.Buf = server.AppendBoxRow(ps.Buf, count == 0, rank, coords)
			count++
			return true
		})
		if err != nil {
			return err
		}
		ps.Buf = server.FinishBoxResponse(ps.Buf, countAt, count, nil)
	case "/v1/pages":
		runs, err := q.PagesIntoContext(ctx, r.boxes[0], ps.Runs[:0])
		ps.Runs = runs
		if err != nil {
			return err
		}
		ps.Buf = server.AppendPagesResponse(ps.Buf, runs, nil)
	case "/v1/batch":
		stats, err := q.QueryBatchContext(ctx, r.boxes)
		if err != nil {
			return err
		}
		ps.Buf = server.AppendBatchResponse(ps.Buf, stats, nil)
	default:
		return fmt.Errorf("unknown path %s", r.path)
	}
	return nil
}

// oracle records in every request the CRC32C and length of the response
// q gives it. q is the in-memory index the workload's served file was
// written from, so every served answer is checked against the build.
func oracle(q server.Queryable, reqs []*request) error {
	ps := server.GetProto()
	defer ps.Put()
	ctx := context.Background()
	for i, r := range reqs {
		if err := answer(ctx, q, r, ps); err != nil {
			return fmt.Errorf("oracle request %d (%s %s): %w", i, r.path, r.body, err)
		}
		r.crc = crc32.Checksum(ps.Buf, castagnoli)
		r.size = len(ps.Buf)
	}
	return nil
}

// check reports whether body is the response the oracle expects for r.
func (r *request) check(body []byte) error {
	if len(body) != r.size || crc32.Checksum(body, castagnoli) != r.crc {
		return fmt.Errorf("%s %s: response (%d bytes) differs from the oracle (%d bytes)", r.path, r.body, len(body), r.size)
	}
	return nil
}

// cutsOf derives the shard cuts of a sharded grid from its shard bounds.
func cutsOf(sx *spectrallpm.ShardedIndex) cuts {
	d := sx.D()
	dims := sx.Dims()
	out := make(cuts, d)
	for a := 0; a < d; a++ {
		seen := map[int]bool{}
		for i := 0; i < sx.NumShards(); i++ {
			_, hi, _, _ := sx.ShardBounds(i)
			if c := hi[a] + 1; c < dims[a] && !seen[c] {
				seen[c] = true
				out[a] = append(out[a], c)
			}
		}
	}
	return out
}

// partsOf counts the shards whose bounds a box intersects.
func partsOf(sx *spectrallpm.ShardedIndex, b spectrallpm.Box) int {
	n := 0
	for i := 0; i < sx.NumShards(); i++ {
		lo, hi, _, _ := sx.ShardBounds(i)
		in := true
		for a := range b.Start {
			if b.Start[a] > hi[a] || b.Start[a]+b.Dims[a]-1 < lo[a] {
				in = false
			}
		}
		if in {
			n++
		}
	}
	return n
}

// crossShare returns the share of boxes (batch members included) that
// touch more than one shard.
func crossShare(sx *spectrallpm.ShardedIndex, reqs []*request) float64 {
	var boxes, crossing int
	for _, r := range reqs {
		for _, b := range r.boxes {
			boxes++
			if partsOf(sx, b) > 1 {
				crossing++
			}
		}
	}
	if boxes == 0 {
		return 0
	}
	return float64(crossing) / float64(boxes)
}

// opCounts summarises a request list as "op=count" pairs.
func opCounts(reqs []*request) string {
	var n [numOps]int
	for _, r := range reqs {
		n[r.op]++
	}
	s := ""
	for op, c := range n {
		if op > 0 {
			s += " "
		}
		s += opNames[op] + "=" + strconv.Itoa(c)
	}
	return s
}
