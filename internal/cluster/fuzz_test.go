package cluster

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// Reply kinds FuzzWorkerReply dispatches on.
const (
	replyBox = iota
	replyPages
	replyRank
	replyPoint
	replyKinds
)

// FuzzWorkerReply drives the router's trust boundary: every worker reply
// is parsed and validated against the handshake geometry before it may
// enter an answer. The data is a box or pages reply frame (answered with
// the frame Content-Type), or a rank or point JSON body. The seeds are
// real replies of a 2-shard 8×8 fleet, each also offered as the other
// shard's reply (cross-wired), plus the torn cases of
// TestTornReplyRejected. Properties: no panic, and every accepted reply
// lies inside its shard's rank block (or the block's pages), ascends,
// and lies inside the shard's bounding box.
//
//	go test -run '^$' -fuzz FuzzWorkerReply -fuzztime 10s ./internal/cluster/
func FuzzWorkerReply(f *testing.F) {
	path := filepath.Join(f.TempDir(), "sharded.slpm")
	writeShardedFile(f, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(f, path)
	g, workers := startFleet(f, path, oracle.NumShards())
	for s, w := range workers {
		_, _, off, _ := oracle.ShardBounds(s)
		coords, err := oracle.Point(off)
		if err != nil {
			f.Fatal(err)
		}
		cb, _ := json.Marshal(coords)
		replies := [replyKinds][]byte{
			replyBox:   askWorker(f, w, "/v1/box", `{"start":[0,0],"dims":[8,8]}`),
			replyPages: askWorker(f, w, "/v1/pages", `{"start":[1,2],"dims":[6,5]}`),
			replyRank:  askWorker(f, w, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb)),
			replyPoint: askWorker(f, w, "/v1/point", fmt.Sprintf(`{"rank":%d}`, off)),
		}
		for kind, data := range replies {
			f.Add(uint8(kind), uint8(s), data)
			f.Add(uint8(kind), uint8(1-s), data)
		}
	}
	for _, tc := range tornReplies() {
		kind := replyBox
		if tc.pages {
			kind = replyPages
		}
		f.Add(uint8(kind), uint8(tc.shard), tc.rp.data)
	}
	// Torn against this fleet's geometry: a foreign rank, a run on the
	// other shard's pages, and a coordinate outside shard 0.
	f.Add(uint8(replyBox), uint8(0), testFrame(1, 3, 50, 0, 0))
	f.Add(uint8(replyPages), uint8(0), testFrame(1, 2, 15, 1))
	f.Add(uint8(replyBox), uint8(0), testFrame(1, 3, 0, 7, 7))
	f.Add(uint8(replyRank), uint8(0), []byte(`{"rank":63}`))
	f.Add(uint8(replyPoint), uint8(0), []byte(`{"coords":[7,7,7]}`))

	f.Fuzz(func(t *testing.T, kind, shard uint8, data []byte) {
		s := int(shard) % len(workers)
		lo, hi := g.offset[s], g.offset[s]+g.records[s]
		inBounds := func(coords []int) bool {
			if len(coords) != g.d {
				return false
			}
			for j, c := range coords {
				if c < g.lo[s][j] || c > g.hi[s][j] {
					return false
				}
			}
			return true
		}
		switch kind % replyKinds {
		case replyBox:
			rp := framed(data)
			if g.decodePart(s, rp, false) != nil {
				return
			}
			w := 1 + g.d
			if len(rp.vals)%w != 0 {
				t.Fatalf("shard %d accepted %d values, not whole rows of %d", s, len(rp.vals), w)
			}
			prev := -1
			for i := 0; i < len(rp.vals); i += w {
				row := rp.vals[i : i+w]
				if row[0] < lo || row[0] >= hi || row[0] <= prev || !inBounds(row[1:]) {
					t.Fatalf("shard %d accepted row %v (block [%d,%d), previous rank %d)", s, row, lo, hi, prev)
				}
				prev = row[0]
			}
		case replyPages:
			rp := framed(data)
			if g.decodePart(s, rp, true) != nil {
				return
			}
			if len(rp.vals)%2 != 0 {
				t.Fatalf("shard %d accepted %d values, not whole runs", s, len(rp.vals))
			}
			first, last, prevEnd := lo/g.rpp, (hi-1)/g.rpp, -1
			for i := 0; i < len(rp.vals); i += 2 {
				start, pages := rp.vals[i], rp.vals[i+1]
				if pages < 1 || start <= prevEnd || hi == lo || start < first || start+pages-1 > last {
					t.Fatalf("shard %d accepted run [%d,%d] (pages [%d,%d], previous end %d)", s, start, pages, first, last, prevEnd)
				}
				prevEnd = start + pages - 1
			}
		case replyRank:
			if rank, err := parseRankReply(g, s, data); err == nil && (rank < lo || rank >= hi) {
				t.Fatalf("shard %d accepted rank %d outside [%d,%d)", s, rank, lo, hi)
			}
		case replyPoint:
			if coords, err := parsePointReply(g, s, data); err == nil && !inBounds(coords) {
				t.Fatalf("shard %d accepted point %v outside its bounds", s, coords)
			}
		}
	})
}

// FuzzTopology drives the topology file, the router's one trust boundary
// that is read from disk rather than the network. Properties: no panic,
// and every topology ParseTopology accepts satisfies each invariant
// Validate documents — shard ids exactly 0..k-1, each declared once,
// every shard with at least one non-empty replica address, and no address
// twice within a shard — so byShard yields one non-empty list per shard.
//
//	go test -run '^$' -fuzz FuzzTopology -fuzztime 10s ./internal/cluster/
func FuzzTopology(f *testing.F) {
	for _, doc := range []string{
		`{"shards":[{"shard":0,"replicas":["127.0.0.1:18081","127.0.0.1:18085"]},{"shard":1,"replicas":["127.0.0.1:18082"]}]}`,
		`{"shards":[{"shard":1,"replicas":["b"]},{"shard":0,"replicas":["a1","a2"]}]}`,
		`{"shards":[]}`,
		`{"shards":[{"shard":0,"replicas":["a"]},{"shard":2,"replicas":["b"]}]}`,
		`{"shards":[{"shard":0,"replicas":["a"]},{"shard":0,"replicas":["b"]}]}`,
		`{"shards":[{"shard":0,"replicas":[]}]}`,
		`{"shards":[{"shard":0,"replicas":[""]}]}`,
		`{"shards":[{"shard":0,"replicas":["a","a"]}]}`,
		`{"shards":[{"shard":-1,"replicas":["a"]}]}`,
		`{"shards":null}`,
		`{"shards":[{"shard":0,"replicas":null}]}`,
		`{"shards":[{"shard":1e3,"replicas":["a"]}]}`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ParseTopology(data)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted topology fails Validate again: %v", err)
		}
		k := topo.NumShards()
		if k == 0 {
			t.Fatal("accepted a topology without shards")
		}
		by := topo.byShard()
		if len(by) != k {
			t.Fatalf("byShard has %d entries for %d shards", len(by), k)
		}
		seen := make([]bool, k)
		for _, sr := range topo.Shards {
			if sr.Shard < 0 || sr.Shard >= k || seen[sr.Shard] {
				t.Fatalf("shard id %d outside [0,%d) or declared twice", sr.Shard, k)
			}
			seen[sr.Shard] = true
		}
		for s, reps := range by {
			if len(reps) == 0 {
				t.Fatalf("shard %d accepted without replicas", s)
			}
			for i, addr := range reps {
				if addr == "" || slices.Contains(reps[:i], addr) {
					t.Fatalf("shard %d replica %d %q is empty or repeated", s, i, addr)
				}
			}
		}
	})
}
