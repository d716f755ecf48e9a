package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
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
// enter an answer. The seeds are real replies of a 2-shard 8×8 fleet,
// each also offered as the other shard's reply (cross-wired), plus the
// torn cases of TestTornReplyRejected. Properties: no panic, and every
// accepted reply lies inside its shard's rank block (or the block's
// pages), ascends, and lies inside the shard's bounding box.
//
//	go test -run '^$' -fuzz FuzzWorkerReply -fuzztime 10s ./internal/cluster/
func FuzzWorkerReply(f *testing.F) {
	path := filepath.Join(f.TempDir(), "sharded.slpm")
	writeShardedFile(f, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(f, path)
	ask := func(w *worker, method, path, body string) []byte {
		rec := httptest.NewRecorder()
		w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			f.Fatalf("%s %s: status %d %q", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	infos := make([]*shardInfo, oracle.NumShards())
	for s := range infos {
		w := startWorker(f, path, s, nil)
		infos[s] = new(shardInfo)
		if err := json.Unmarshal(ask(w, http.MethodGet, "/v1/shardinfo", ""), infos[s]); err != nil {
			f.Fatal(err)
		}
		_, _, off, _ := oracle.ShardBounds(s)
		coords, err := oracle.Point(off)
		if err != nil {
			f.Fatal(err)
		}
		cb, _ := json.Marshal(coords)
		replies := [replyKinds][]byte{
			replyBox:   ask(w, http.MethodPost, "/v1/box", `{"start":[0,0],"dims":[8,8]}`),
			replyPages: ask(w, http.MethodPost, "/v1/pages", `{"start":[1,2],"dims":[6,5]}`),
			replyRank:  ask(w, http.MethodPost, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb)),
			replyPoint: ask(w, http.MethodPost, "/v1/point", fmt.Sprintf(`{"rank":%d}`, off)),
		}
		for kind, data := range replies {
			f.Add(uint8(kind), uint8(s), data)
			f.Add(uint8(kind), uint8(1-s), data)
		}
	}
	g, err := buildGeometry(infos)
	if err != nil {
		f.Fatal(err)
	}
	for _, torn := range []string{
		`{"count":2,"results":[[0,0,0]]}`,
		`{"count":1,"results":[[0,0]]}`,
		`{"count":1,"results":[[50,0,0]]}`,
		`{"count":2,"results":[[1,0,0],[0,0,1]]}`,
		`{"count":2,"results":[[1,0,0],[1,0,1]]}`,
		`{"count":1,"results":[[0,7,7]]}`,
	} {
		f.Add(uint8(replyBox), uint8(0), []byte(torn))
	}
	for _, torn := range []string{`{"runs":[[0,2],[1,1]]}`, `{"runs":[[0,99]]}`, `{"runs":[[15,1]]}`, `{"runs":[[0,0]]}`} {
		f.Add(uint8(replyPages), uint8(0), []byte(torn))
	}
	f.Add(uint8(replyRank), uint8(0), []byte(`{"rank":63}`))
	f.Add(uint8(replyPoint), uint8(0), []byte(`{"coords":[7,7,7]}`))

	f.Fuzz(func(t *testing.T, kind, shard uint8, data []byte) {
		s := int(shard) % len(infos)
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
			rows, err := parseBoxReply(g, s, data)
			if err != nil {
				return
			}
			prev := -1
			for _, row := range rows {
				if len(row) != 1+g.d || row[0] < lo || row[0] >= hi || row[0] <= prev || !inBounds(row[1:]) {
					t.Fatalf("shard %d accepted row %v (block [%d,%d), previous rank %d)", s, row, lo, hi, prev)
				}
				prev = row[0]
			}
		case replyPages:
			runs, err := parsePagesReply(g, s, data)
			if err != nil {
				return
			}
			first, last, prevEnd := lo/g.rpp, (hi-1)/g.rpp, -1
			for _, r := range runs {
				if r.Pages < 1 || r.Start <= prevEnd || hi == lo || r.Start < first || r.Start+r.Pages-1 > last {
					t.Fatalf("shard %d accepted run %+v (pages [%d,%d], previous end %d)", s, r, first, last, prevEnd)
				}
				prevEnd = r.Start + r.Pages - 1
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
