// Cluster tests: a real sharded index served by real worker daemons over
// real sockets, queried through the router, and pinned against the
// monolithic ShardedIndex oracle. Every distributed answer must be
// rank-for-rank what the single process would have said — or an honestly
// labeled partial of it.
package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// writeShardedFile builds a sharded index and persists its v2 container.
func writeShardedFile(t testing.TB, path string, shards int, opts ...spectrallpm.BuildOption) {
	t.Helper()
	sx, err := spectrallpm.BuildSharded(context.Background(), shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.WriteToV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// openOracle maps the container whole — the monolithic answer the
// cluster must reproduce.
func openOracle(t testing.TB, path string) *spectrallpm.ShardedIndex {
	t.Helper()
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sx.Close() })
	return sx
}

// worker is one live shard worker: the daemon plus its HTTP listener.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
}

func (w *worker) addr() string { return strings.TrimPrefix(w.ts.URL, "http://") }

func (w *worker) stop() {
	w.ts.Close()
	w.srv.Index().Close()
}

// startWorker boots a worker daemon scoped to one shard of the container,
// optionally wrapping its handler (for targeted outage/delay middleware).
func startWorker(t testing.TB, path string, shardID int, wrap func(http.Handler) http.Handler) *worker {
	t.Helper()
	srv, err := server.New(server.Config{
		IndexPath:      path,
		DefaultTimeout: 10 * time.Second,
		Logf:           func(string, ...any) {},
		Open: func(p string) (server.Queryable, error) {
			return OpenShardWorker(p, shardID)
		},
		Routes: WorkerRoutes,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	w := &worker{srv: srv, ts: httptest.NewServer(h)}
	t.Cleanup(w.stop)
	return w
}

// startRouter assembles and handshakes a router over the given topology.
func startRouter(t testing.TB, topo *Topology, mut func(*RouterConfig)) *Router {
	t.Helper()
	cfg := RouterConfig{
		Topology:       topo,
		HedgeAfter:     10 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		BackoffBase:    2 * time.Millisecond,
		ProbeInterval:  time.Hour, // probes driven explicitly in tests
		Logf:           func(string, ...any) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	return rt
}

// handshake completes the geometry handshake or fails the test.
func handshake(t testing.TB, rt *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rt.ProbeOnce(ctx)
	if !rt.Ready() {
		t.Fatal("geometry handshake incomplete")
	}
}

func rpost(rt *Router, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

func rget(rt *Router, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// boxJSON is the decoded wire form of a box response.
type boxJSON struct {
	Count         int     `json:"count"`
	Results       [][]int `json:"results"`
	ShardsMissing []int   `json:"shards_missing"`
}

func decodeBox(t testing.TB, w *httptest.ResponseRecorder) boxJSON {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("box: status %d body %q", w.Code, w.Body)
	}
	var b boxJSON
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("box: %v (%q)", err, w.Body)
	}
	return b
}

// oracleRows gathers the monolithic rows ([rank, c0, c1, ...]) for a box.
func oracleRows(t testing.TB, sx *spectrallpm.ShardedIndex, b spectrallpm.Box) [][]int {
	t.Helper()
	rows := [][]int{}
	err := sx.ScanIntoContext(context.Background(), b, func(rank int, coords []int) bool {
		row := append([]int{rank}, coords...)
		rows = append(rows, row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func boxBody(b spectrallpm.Box) string {
	s, _ := json.Marshal(b.Start)
	d, _ := json.Marshal(b.Dims)
	return fmt.Sprintf(`{"start":%s,"dims":%s}`, s, d)
}

// askWorker sends one request straight to a worker's handler — asking
// for a reply frame on /v1/box and /v1/batch, as the router does — and
// returns the 200 body. An empty body sends a GET.
func askWorker(t testing.TB, w *worker, path, body string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if body != "" {
		req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	}
	if path == "/v1/box" || path == "/v1/batch" {
		req.Header.Set("Accept", server.FrameContentType)
	}
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d %q", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// startFleet starts one worker per shard of the container at path and
// assembles the geometry a router's handshake would learn from them.
func startFleet(t testing.TB, path string, shards int) (*geometry, []*worker) {
	t.Helper()
	workers := make([]*worker, shards)
	infos := make([]*shardInfo, shards)
	for s := range workers {
		workers[s] = startWorker(t, path, s, nil)
		infos[s] = new(shardInfo)
		if err := json.Unmarshal(askWorker(t, workers[s], "/v1/shardinfo", ""), infos[s]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := buildGeometry(infos)
	if err != nil {
		t.Fatal(err)
	}
	return g, workers
}

// fullTopology lists every started worker, nReplicas per shard:
// workers[s*nReplicas+i] is shard s's replica i.
func fullTopology(workers []*worker, shards, nReplicas int) *Topology {
	topo := &Topology{}
	for s := 0; s < shards; s++ {
		sr := ShardReplicas{Shard: s}
		for i := 0; i < nReplicas; i++ {
			sr.Replicas = append(sr.Replicas, workers[s*nReplicas+i].addr())
		}
		topo.Shards = append(topo.Shards, sr)
	}
	return topo
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no_shards", `{"shards":[]}`},
		{"gap", `{"shards":[{"shard":0,"replicas":["a"]},{"shard":2,"replicas":["b"]}]}`},
		{"dup_shard", `{"shards":[{"shard":0,"replicas":["a"]},{"shard":0,"replicas":["b"]}]}`},
		{"no_replicas", `{"shards":[{"shard":0,"replicas":[]}]}`},
		{"empty_addr", `{"shards":[{"shard":0,"replicas":[""]}]}`},
		{"dup_addr", `{"shards":[{"shard":0,"replicas":["a","a"]}]}`},
		{"negative", `{"shards":[{"shard":-1,"replicas":["a"]}]}`},
	}
	for _, tc := range cases {
		if _, err := ParseTopology([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	topo, err := ParseTopology([]byte(`{"shards":[{"shard":1,"replicas":["b"]},{"shard":0,"replicas":["a1","a2"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumShards() != 2 {
		t.Fatalf("NumShards = %d", topo.NumShards())
	}
	by := topo.byShard()
	if !reflect.DeepEqual(by[0], []string{"a1", "a2"}) || !reflect.DeepEqual(by[1], []string{"b"}) {
		t.Fatalf("byShard = %v", by)
	}
}

// TestRouterOracleGrid pins the full distributed surface — box, pages,
// batch, rank, point — against the monolithic ShardedIndex on a 4-shard
// grid with 2 replicas per shard.
func TestRouterOracleGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 4, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	const nReplicas = 2
	var workers []*worker
	for s := 0; s < 4; s++ {
		for i := 0; i < nReplicas; i++ {
			workers = append(workers, startWorker(t, path, s, nil))
		}
	}
	rt := startRouter(t, fullTopology(workers, 4, nReplicas), nil)
	handshake(t, rt)

	boxes := []spectrallpm.Box{
		{Start: []int{0, 0}, Dims: []int{8, 8}}, // everything
		{Start: []int{0, 0}, Dims: []int{1, 1}}, // 1 cell
		{Start: []int{7, 7}, Dims: []int{1, 1}},
		{Start: []int{2, 3}, Dims: []int{4, 2}},
		{Start: []int{0, 3}, Dims: []int{8, 1}}, // full row stripe
		{Start: []int{3, 0}, Dims: []int{1, 8}}, // full column stripe
	}

	t.Run("box", func(t *testing.T) {
		for _, b := range boxes {
			got := decodeBox(t, rpost(rt, "/v1/box", boxBody(b)))
			want := oracleRows(t, oracle, b)
			if got.ShardsMissing != nil {
				t.Fatalf("box %v: unexpected shards_missing %v", b, got.ShardsMissing)
			}
			if got.Count != len(want) || !reflect.DeepEqual(got.Results, want) {
				t.Fatalf("box %v:\n got %v\nwant %v", b, got.Results, want)
			}
		}
	})

	t.Run("pages", func(t *testing.T) {
		for _, b := range boxes {
			w := rpost(rt, "/v1/pages", boxBody(b))
			if w.Code != http.StatusOK {
				t.Fatalf("pages %v: status %d body %q", b, w.Code, w.Body)
			}
			var got struct {
				Runs [][]int `json:"runs"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want, err := oracle.PagesIntoContext(context.Background(), b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Runs) != len(want) {
				t.Fatalf("pages %v: got %v, want %v", b, got.Runs, want)
			}
			for i, r := range want {
				if got.Runs[i][0] != r.Start || got.Runs[i][1] != r.Pages {
					t.Fatalf("pages %v run %d: got %v, want %+v", b, i, got.Runs[i], r)
				}
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		var parts []string
		for _, b := range boxes {
			parts = append(parts, boxBody(b))
		}
		w := rpost(rt, "/v1/batch", `{"boxes":[`+strings.Join(parts, ",")+`]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("batch: status %d body %q", w.Code, w.Body)
		}
		var got struct {
			Stats []struct {
				Pages     int `json:"pages"`
				Seeks     int `json:"seeks"`
				SpanPages int `json:"span_pages"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.QueryBatchContext(context.Background(), boxes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Stats) != len(want) {
			t.Fatalf("batch: %d stats, want %d", len(got.Stats), len(want))
		}
		for i, st := range want {
			g := got.Stats[i]
			if g.Pages != st.Pages || g.Seeks != st.Seeks || g.SpanPages != st.SpanPages {
				t.Fatalf("batch box %d: got %+v, want %+v", i, g, st)
			}
		}
	})

	t.Run("rank_point_roundtrip", func(t *testing.T) {
		for r := 0; r < oracle.N(); r++ {
			coords, err := oracle.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			cb, _ := json.Marshal(coords)
			w := rpost(rt, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb))
			if w.Code != http.StatusOK {
				t.Fatalf("rank of %v: status %d body %q", coords, w.Code, w.Body)
			}
			var rr struct{ Rank int }
			if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
				t.Fatal(err)
			}
			if rr.Rank != r {
				t.Fatalf("rank of %v = %d, want %d", coords, rr.Rank, r)
			}
			w = rpost(rt, "/v1/point", fmt.Sprintf(`{"rank":%d}`, r))
			if w.Code != http.StatusOK {
				t.Fatalf("point of %d: status %d body %q", r, w.Code, w.Body)
			}
			var pp struct{ Coords []int }
			if err := json.Unmarshal(w.Body.Bytes(), &pp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pp.Coords, coords) {
				t.Fatalf("point of %d = %v, want %v", r, pp.Coords, coords)
			}
		}
	})

	t.Run("validation_passthrough", func(t *testing.T) {
		if w := rpost(rt, "/v1/box", `{"start":[0,0],"dims":[9,9]}`); w.Code != http.StatusBadRequest {
			t.Fatalf("oversized box: status %d", w.Code)
		}
		if w := rpost(rt, "/v1/rank", `{"coords":[0]}`); w.Code != http.StatusBadRequest {
			t.Fatalf("arity mismatch: status %d", w.Code)
		}
		if w := rpost(rt, "/v1/point", `{"rank":999}`); w.Code != http.StatusBadRequest {
			t.Fatalf("rank out of range: status %d", w.Code)
		}
		if w := rpost(rt, "/v1/batch", `{"boxes":[]}`); w.Code != http.StatusBadRequest {
			t.Fatalf("empty batch: status %d", w.Code)
		}
	})

	t.Run("healthz_stats", func(t *testing.T) {
		w := rget(rt, "/healthz")
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
			t.Fatalf("healthz: %d %q", w.Code, w.Body)
		}
		w = rget(rt, "/stats")
		var st struct {
			Ready  bool `json:"ready"`
			Shards []struct {
				Replicas []struct {
					Ejected bool `json:"ejected"`
				} `json:"replicas"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if !st.Ready || len(st.Shards) != 4 {
			t.Fatalf("stats: %+v", st)
		}
	})

	// No protocol scratch may leak across the distributed path.
	if n := server.ProtoLive(); n != 0 {
		t.Fatalf("%d protocol scratches leaked", n)
	}
}

// TestRouterOraclePoints covers the point-set flavor, whose shard
// bounding boxes may overlap: rank routing must treat containment as a
// candidate list, and box fan-out must stay rank-for-rank correct.
func TestRouterOraclePoints(t *testing.T) {
	pts := [][]int{
		{0, 0}, {1, 3}, {2, 1}, {5, 5}, {6, 2}, {7, 7}, {3, 6}, {4, 4},
		{0, 7}, {7, 0}, {2, 5}, {6, 6},
	}
	path := filepath.Join(t.TempDir(), "points.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithPoints(pts), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	workers := []*worker{
		startWorker(t, path, 0, nil),
		startWorker(t, path, 1, nil),
	}
	rt := startRouter(t, fullTopology(workers, 2, 1), nil)
	handshake(t, rt)

	b := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	got := decodeBox(t, rpost(rt, "/v1/box", boxBody(b)))
	want := oracleRows(t, oracle, b)
	if !reflect.DeepEqual(got.Results, want) {
		t.Fatalf("box:\n got %v\nwant %v", got.Results, want)
	}

	for r := 0; r < oracle.N(); r++ {
		coords, err := oracle.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := json.Marshal(coords)
		w := rpost(rt, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb))
		if w.Code != http.StatusOK {
			t.Fatalf("rank of %v: status %d body %q", coords, w.Code, w.Body)
		}
		var rr struct{ Rank int }
		json.Unmarshal(w.Body.Bytes(), &rr)
		if rr.Rank != r {
			t.Fatalf("rank of %v = %d, want %d", coords, rr.Rank, r)
		}
	}

	// A coordinate that is no point answers 404 from every candidate.
	if w := rpost(rt, "/v1/rank", `{"coords":[3,3]}`); w.Code != http.StatusNotFound {
		t.Fatalf("unindexed point: status %d body %q", w.Code, w.Body)
	}
}

// TestRouterPartial kills a single-replica shard and asserts the partial
// contract: -partial answers the reachable shards rank-correctly with the
// gap labeled in shards_missing; strict mode fails the query whole.
func TestRouterPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	w0 := startWorker(t, path, 0, nil)
	w1 := startWorker(t, path, 1, nil)
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{w0.addr()}},
		{Shard: 1, Replicas: []string{w1.addr()}},
	}}
	fast := func(c *RouterConfig) {
		c.AttemptTimeout = 300 * time.Millisecond
		c.Retries = 1
	}
	partial := startRouter(t, topo, func(c *RouterConfig) { fast(c); c.Partial = true })
	strict := startRouter(t, topo, fast)
	handshake(t, partial)
	handshake(t, strict)

	// Shard 1's only replica dies after the handshake.
	w1.ts.Close()

	_, _, off1, recs1 := oracle.ShardBounds(1)
	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}

	t.Run("partial_box", func(t *testing.T) {
		got := decodeBox(t, rpost(partial, "/v1/box", boxBody(all)))
		if !reflect.DeepEqual(got.ShardsMissing, []int{1}) {
			t.Fatalf("shards_missing = %v, want [1]", got.ShardsMissing)
		}
		var want [][]int
		for _, row := range oracleRows(t, oracle, all) {
			if row[0] < off1 || row[0] >= off1+recs1 {
				want = append(want, row)
			}
		}
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("partial rows:\n got %v\nwant %v", got.Results, want)
		}
	})

	t.Run("partial_pages_batch", func(t *testing.T) {
		w := rpost(partial, "/v1/pages", boxBody(all))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
			t.Fatalf("pages: %d %q", w.Code, w.Body)
		}
		w = rpost(partial, "/v1/batch", `{"boxes":[`+boxBody(all)+`]}`)
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
			t.Fatalf("batch: %d %q", w.Code, w.Body)
		}
	})

	t.Run("strict_fails_whole", func(t *testing.T) {
		if w := rpost(strict, "/v1/box", boxBody(all)); w.Code != http.StatusBadGateway {
			t.Fatalf("strict box: status %d body %q", w.Code, w.Body)
		}
	})

	t.Run("scalar_never_partial", func(t *testing.T) {
		coords, err := oracle.Point(off1) // owned by the dead shard
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := json.Marshal(coords)
		if w := rpost(partial, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb)); w.Code != http.StatusBadGateway {
			t.Fatalf("rank via dead owner: status %d body %q", w.Code, w.Body)
		}
		if w := rpost(partial, "/v1/point", fmt.Sprintf(`{"rank":%d}`, off1)); w.Code != http.StatusBadGateway {
			t.Fatalf("point via dead owner: status %d body %q", w.Code, w.Body)
		}
	})

	// A box that never touches the dead shard stays complete — no label.
	t.Run("untouched_box_complete", func(t *testing.T) {
		lo0, hi0, _, _ := oracle.ShardBounds(0)
		b := spectrallpm.Box{Start: append([]int(nil), lo0...), Dims: []int{1, 1}}
		_ = hi0
		got := decodeBox(t, rpost(partial, "/v1/box", boxBody(b)))
		if got.ShardsMissing != nil {
			t.Fatalf("shards_missing = %v on a shard-0-only box", got.ShardsMissing)
		}
		if !reflect.DeepEqual(got.Results, oracleRows(t, oracle, b)) {
			t.Fatalf("shard-0-only box rows wrong")
		}
	})
}

// TestOversizedReplyBounded serves shard 1 from a worker that answers
// every box part with an endless frame stream and every batch part (which
// is how pages queries travel) with a Content-Length far past the part's
// cap. The router reads at most one
// byte past the cap (and nothing of a declared-oversized body), drops the
// connection and fails the part: 502 in strict mode, a labeled partial
// in -partial mode. Buffering the endless body whole could never finish.
func TestOversizedReplyBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	stopped := make(chan struct{}, 8) // one per box attempt; the test makes two
	flood := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/box":
				w.Header().Set("Content-Type", server.FrameContentType)
				chunk := make([]byte, 32<<10)
				for r.Context().Err() == nil {
					if _, err := w.Write(chunk); err != nil {
						break
					}
					w.(http.Flusher).Flush()
				}
				stopped <- struct{}{}
			case "/v1/batch":
				w.Header().Set("Content-Type", server.FrameContentType)
				w.Header().Set("Content-Length", "1000000000")
				w.WriteHeader(http.StatusOK)
				w.Write(make([]byte, 1024))
			default:
				h.ServeHTTP(w, r)
			}
		})
	}
	w0 := startWorker(t, path, 0, nil)
	w1 := startWorker(t, path, 1, flood)
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{w0.addr()}},
		{Shard: 1, Replicas: []string{w1.addr()}},
	}}
	patient := func(c *RouterConfig) {
		c.AttemptTimeout = time.Minute // far past the request deadline
		c.Retries = -1
	}
	strict := startRouter(t, topo, patient)
	partial := startRouter(t, topo, func(c *RouterConfig) { patient(c); c.Partial = true })
	handshake(t, strict)
	handshake(t, partial)

	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	batch := `{"boxes":[` + boxBody(all) + `]}`
	for _, tc := range [][2]string{{"/v1/box", boxBody(all)}, {"/v1/pages", boxBody(all)}, {"/v1/batch", batch}} {
		if w := rpost(strict, tc[0], tc[1]); w.Code != http.StatusBadGateway {
			t.Fatalf("strict %s: status %d body %q, want 502", tc[0], w.Code, w.Body)
		}
	}
	got := decodeBox(t, rpost(partial, "/v1/box", boxBody(all)))
	if !reflect.DeepEqual(got.ShardsMissing, []int{1}) {
		t.Fatalf("partial box: shards_missing = %v, want [1]", got.ShardsMissing)
	}
	_, _, off1, _ := oracle.ShardBounds(1)
	var want [][]int
	for _, row := range oracleRows(t, oracle, all) {
		if row[0] < off1 {
			want = append(want, row)
		}
	}
	if !reflect.DeepEqual(got.Results, want) {
		t.Fatalf("partial box rows:\n got %v\nwant %v", got.Results, want)
	}
	if w := rpost(partial, "/v1/pages", boxBody(all)); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
		t.Fatalf("partial pages: %d %q", w.Code, w.Body)
	}
	if w := rpost(partial, "/v1/batch", batch); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
		t.Fatalf("partial batch: %d %q", w.Code, w.Body)
	}
	// Each endless stream ends because the router hung up on it.
	for i := 0; i < 2; i++ {
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatal("the router kept reading an oversized box reply")
		}
	}
	if n := server.ProtoLive(); n != 0 {
		t.Fatalf("%d protocol scratches leaked", n)
	}
}

// TestRouterWarming pins the bootstrap contract: before the geometry
// handshake completes the router answers 503 everywhere, then serves the
// moment the fleet appears.
func TestRouterWarming(t *testing.T) {
	// Reserve an address nobody is listening on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	topo := &Topology{Shards: []ShardReplicas{{Shard: 0, Replicas: []string{dead}}}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.AttemptTimeout = 100 * time.Millisecond
		c.Retries = -1 // negative = no retries: keep the warming probes fast
	})
	if w := rget(rt, "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "warming") {
		t.Fatalf("healthz while warming: %d %q", w.Code, w.Body)
	}
	if w := rpost(rt, "/v1/box", `{"start":[0],"dims":[1]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while warming: status %d", w.Code)
	}
}

// TestReplicaEjectionAndReinstatement drives the health lifecycle: a dead
// replica accumulates consecutive failures and is ejected; queries keep
// succeeding through the live replica; a probe reinstates the replica
// once a worker answers on its address again.
func TestReplicaEjectionAndReinstatement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	live0 := startWorker(t, path, 0, nil)
	live1 := startWorker(t, path, 1, nil)
	// Reserve a port for the flappy replica, currently dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flakyAddr := ln.Addr().String()
	ln.Close()

	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{flakyAddr, live0.addr()}},
		{Shard: 1, Replicas: []string{live1.addr()}},
	}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.AttemptTimeout = 300 * time.Millisecond
		c.Retries = 2
		c.FailThreshold = 2
	})
	handshake(t, rt)

	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	want := oracleRows(t, oracle, all)
	flaky := rt.remote().shards[0].replicas[0]
	if flaky.addr != flakyAddr {
		t.Fatalf("replica order: %s != %s", flaky.addr, flakyAddr)
	}

	// Queries succeed throughout; the dead replica's failures pile up
	// until it is ejected from rotation.
	for i := 0; i < 8 && !flaky.ejected.Load(); i++ {
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(all)))
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("query %d wrong while replica flapping", i)
		}
	}
	if !flaky.ejected.Load() {
		t.Fatal("dead replica never ejected")
	}

	// A worker comes back on the same address; the probe reinstates it.
	ln2, err := net.Listen("tcp", flakyAddr)
	if err != nil {
		t.Fatalf("rebind %s: %v", flakyAddr, err)
	}
	revived := startWorker(t, path, 0, nil)
	revivedTS := httptest.NewUnstartedServer(revived.srv.Handler())
	revivedTS.Listener.Close()
	revivedTS.Listener = ln2
	revivedTS.Start()
	t.Cleanup(revivedTS.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rt.ProbeOnce(ctx)
	if flaky.ejected.Load() {
		t.Fatal("replica not reinstated by probe")
	}
	got := decodeBox(t, rpost(rt, "/v1/box", boxBody(all)))
	if !reflect.DeepEqual(got.Results, want) {
		t.Fatal("query wrong after reinstatement")
	}
}

// TestHedgedRead makes one replica slow and asserts the router races a
// hedged second request instead of waiting: answers stay correct and the
// hedge counter moves.
func TestHedgedRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 1, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	slow := startWorker(t, path, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") && r.URL.Path != "/v1/shardinfo" {
				time.Sleep(250 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	fast := startWorker(t, path, 0, nil)
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{slow.addr(), fast.addr()}},
	}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.HedgeAfter = 10 * time.Millisecond
		c.AttemptTimeout = 2 * time.Second
	})
	handshake(t, rt)

	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	want := oracleRows(t, oracle, all)
	for i := 0; i < 4; i++ {
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(all)))
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("hedged query %d wrong", i)
		}
	}
	if rt.remote().hedges.Load() == 0 {
		t.Fatal("no hedged request was ever launched")
	}
}

// TestMergeRunsAndStats pins the cross-shard run coalescing rule and the
// stats derivation against hand-computed shapes, including the mid-page
// shard-boundary overlap.
func TestMergeRunsAndStats(t *testing.T) {
	mk := func(runs ...[2]int) []spectrallpm.PageRun {
		out := make([]spectrallpm.PageRun, len(runs))
		for i, r := range runs {
			out[i] = spectrallpm.PageRun{Start: r[0], Pages: r[1]}
		}
		return out
	}
	cases := []struct {
		name  string
		parts [][]spectrallpm.PageRun
		want  []spectrallpm.PageRun
	}{
		{"empty", [][]spectrallpm.PageRun{{}, {}}, nil},
		{"one_sided", [][]spectrallpm.PageRun{mk([2]int{1, 2}), {}}, mk([2]int{1, 2})},
		{"disjoint", [][]spectrallpm.PageRun{mk([2]int{0, 2}), mk([2]int{5, 1})}, mk([2]int{0, 2}, [2]int{5, 1})},
		{"adjacent_fuse", [][]spectrallpm.PageRun{mk([2]int{0, 2}), mk([2]int{2, 2})}, mk([2]int{0, 4})},
		{"boundary_page_overlap", [][]spectrallpm.PageRun{mk([2]int{0, 3}), mk([2]int{2, 2})}, mk([2]int{0, 4})},
		{"contained", [][]spectrallpm.PageRun{mk([2]int{0, 6}), mk([2]int{2, 2})}, mk([2]int{0, 6})},
	}
	for _, tc := range cases {
		parts := make([]*part, len(tc.parts))
		for i, runs := range tc.parts {
			rp := &reply{}
			for _, r := range runs {
				rp.vals = append(rp.vals, 0, r.Start, r.Pages)
			}
			parts[i] = &part{boxes: []int{0}, rp: rp}
		}
		got := mergeBox(nil, parts, 0)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}

	st := statsFromRuns(mk([2]int{1, 2}, [2]int{5, 3}))
	if st.Pages != 5 || st.Seeks != 2 || st.SpanPages != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st := statsFromRuns(nil); st.Pages != 0 || st.Seeks != 0 || st.SpanPages != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

// testFrame encodes a reply frame whose header declares count and width
// over the values that follow, honest or not, under a valid checksum.
func testFrame(count, width int, vals ...int) []byte {
	b, at := server.AppendFrameHeader(nil)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return server.FinishFrame(b, at, count, width)
}

// framed wraps data as a worker's 200 reply-frame answer.
func framed(data []byte) *reply {
	return &reply{status: http.StatusOK, ctype: server.FrameContentType, data: data}
}

// tornGeometry is two shards of a 4×4 grid with 4 records each and 2
// records per page: shard 0 holds ranks [0,4) in x∈[0,1] on pages [0,1],
// shard 1 ranks [4,8) in x∈[2,3] on pages [2,3].
func tornGeometry() *geometry {
	return &geometry{
		d: 2, total: 8, rpp: 2, numPages: 4,
		lo:      [][]int{{0, 0}, {2, 0}},
		hi:      [][]int{{1, 3}, {3, 3}},
		offset:  []int{0, 4},
		records: []int{4, 4},
	}
}

// tornPart wraps a reply to shard s's part. A batch part sent two boxes
// whose honest answer holds at most two runs.
func tornPart(s int, batch bool, rp *reply) *part {
	p := &part{shard: s, rp: rp}
	if batch {
		p.boxes, p.rows = []int{0, 1}, 2
	}
	return p
}

// tornCase is a reply to a box (or batch) part that shard may not accept.
type tornCase struct {
	name  string
	batch bool
	shard int
	rp    *reply
}

// tornReplies lists torn, malformed and cross-wired replies that no
// shard of tornGeometry may accept.
func tornReplies() []tornCase {
	good := testFrame(2, 3, 0, 0, 0, 3, 1, 3)
	badCRC := slices.Clone(good)
	badCRC[len(badCRC)-1] ^= 0xff
	noMagic := slices.Clone(good)
	noMagic[0] = 'X'
	binary.LittleEndian.PutUint32(noMagic[len(noMagic)-4:], crc32.Checksum(noMagic[:len(noMagic)-4], crc32.MakeTable(crc32.Castagnoli)))
	return []tornCase{
		{"count_mismatch", false, 0, framed(testFrame(2, 3, 0, 0, 0))},
		{"row_arity", false, 0, framed(testFrame(1, 2, 0, 0))},
		{"foreign_rank", false, 0, framed(testFrame(1, 3, 5, 0, 0))},
		{"unordered", false, 0, framed(testFrame(2, 3, 1, 0, 0, 0, 0, 1))},
		{"duplicate", false, 0, framed(testFrame(2, 3, 1, 0, 0, 1, 0, 1))},
		{"coords_outside_shard", false, 0, framed(testFrame(1, 3, 0, 3, 0))},
		{"bad_crc", false, 0, framed(badCRC)},
		{"truncated", false, 0, framed(good[:len(good)-8])},
		{"count_over_length", false, 0, framed(testFrame(3, 3, 0, 0, 0, 3, 1, 3))},
		// (2^64+2)/3 rows of width 3 wrap around to the frame's 2 values.
		{"count_overflow", false, 0, framed(testFrame(6148914691236517206, 3, 0, 0))},
		{"width_not_1+d", false, 0, framed(testFrame(1, 4, 0, 0, 0, 0))},
		{"no_magic", false, 0, framed(noMagic)},
		{"json_body", false, 0, &reply{status: http.StatusOK, ctype: "application/json",
			data: []byte(`{"count":2,"results":[[0,0,0],[3,1,3]]}`)}},
		{"error_status", false, 0, &reply{status: http.StatusBadRequest, ctype: "text/plain", data: []byte("bad request")}},
		// Batch runs: rows [box index, start page, pages].
		{"batch_width_2", true, 0, framed(testFrame(1, 2, 0, 1))},
		{"batch_width_4", true, 0, framed(testFrame(1, 4, 0, 0, 1, 0))},
		{"box_not_sent", true, 0, framed(testFrame(1, 3, 2, 0, 1))},
		{"negative_box", true, 0, framed(testFrame(1, 3, -1, 0, 1))},
		{"box_descends", true, 0, framed(testFrame(2, 3, 1, 0, 1, 0, 1, 1))},
		{"overlapping_runs", true, 0, framed(testFrame(2, 3, 0, 0, 2, 0, 1, 1))},
		{"runs_out_of_order", true, 0, framed(testFrame(2, 3, 0, 1, 1, 0, 0, 1))},
		{"duplicate_run", true, 1, framed(testFrame(2, 3, 1, 2, 1, 1, 2, 1))},
		{"run_past_pages", true, 0, framed(testFrame(1, 3, 0, 1, 2))},
		// Cross-wired: runs inside [0,numPages) but on the other shard's pages.
		{"cross_wired_run", true, 0, framed(testFrame(1, 3, 0, 2, 1))},
		{"cross_wired_run_low", true, 1, framed(testFrame(1, 3, 0, 1, 1))},
		{"empty_run", true, 0, framed(testFrame(1, 3, 0, 0, 0))},
		{"negative_run", true, 0, framed(testFrame(1, 3, 0, 1, -1))},
		// Three runs that each pass, but two boxes can honestly hold two.
		{"count_over_cap", true, 0, framed(testFrame(3, 3, 0, 0, 1, 1, 0, 1, 1, 1, 1))},
		{"json_batch", true, 0, &reply{status: http.StatusOK, ctype: "application/json",
			data: []byte(`{"stats":[{"pages":1,"seeks":1,"span_pages":1}]}`)}},
		{"error_status_batch", true, 0, &reply{status: http.StatusBadRequest, ctype: "text/plain", data: []byte("bad request")}},
	}
}

// decodeTorn decodes tc's reply as its part kind expects.
func (g *geometry) decodeTorn(p *part, batch bool) error {
	if batch {
		return g.decodeBatch(p)
	}
	return g.decodeRows(p)
}

// TestTornReplyRejected feeds the part decoders torn, malformed and
// cross-wired replies; none may pass, and honest frames decode exactly.
func TestTornReplyRejected(t *testing.T) {
	g := tornGeometry()
	for _, tc := range tornReplies() {
		if err := g.decodeTorn(tornPart(tc.shard, tc.batch, tc.rp), tc.batch); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !errors.Is(err, server.ErrUnreachable) {
			t.Errorf("%s: %v does not fail the part as unreachable", tc.name, err)
		}
	}
	good := framed(testFrame(2, 3, 0, 0, 0, 3, 1, 3))
	if err := g.decodeRows(tornPart(0, false, good)); err != nil {
		t.Errorf("good box reply rejected: %v", err)
	} else if !slices.Equal(good.vals, []int{0, 0, 0, 3, 1, 3}) {
		t.Errorf("good box reply decoded to %v", good.vals)
	}
	if err := g.decodeRows(tornPart(0, false, framed(testFrame(0, 3)))); err != nil {
		t.Errorf("empty box reply rejected: %v", err)
	}
	for s, want := range [][]int{{0, 0, 1, 1, 1, 1}, {0, 2, 2}} {
		runs := framed(testFrame(len(want)/3, 3, want...))
		if err := g.decodeBatch(tornPart(s, true, runs)); err != nil {
			t.Errorf("shard %d: good batch reply rejected: %v", s, err)
		} else if !slices.Equal(runs.vals, want) {
			t.Errorf("shard %d: good batch reply decoded to %v", s, runs.vals)
		}
	}
	if err := g.decodeBatch(tornPart(1, true, framed(testFrame(0, 3)))); err != nil {
		t.Errorf("empty batch reply rejected: %v", err)
	}
}

// TestHandshakeRequiresShardOrder pins the merge rule's precondition: the
// rank blocks must tile [0, N) in shard-id order. Blocks that tile in
// another order are refused with a diagnostic, and the router stays
// warming instead of answering.
func TestHandshakeRequiresShardOrder(t *testing.T) {
	info := func(shard, off, recs int) string {
		return fmt.Sprintf(`{"shard":%d,"points":false,"d":2,"dims":[4,2],"lo":[%d,0],"hi":[%d,1],`+
			`"rank_offset":%d,"records":%d,"total_records":8,"records_per_page":4}`, shard, 2*shard, 2*shard+1, off, recs)
	}
	fake := func(doc string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(doc))
		}))
		t.Cleanup(ts.Close)
		return strings.TrimPrefix(ts.URL, "http://")
	}
	var mu sync.Mutex
	var logs []string
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{fake(info(0, 4, 4))}},
		{Shard: 1, Replicas: []string{fake(info(1, 0, 4))}},
	}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	if rt.Ready() {
		t.Fatal("handshake accepted rank blocks out of shard order")
	}
	mu.Lock()
	diag := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(diag, "do not tile [0,8) in shard order") {
		t.Fatalf("no shard-order diagnostic in logs:\n%s", diag)
	}
	if w := rpost(rt, "/v1/box", `{"start":[0,0],"dims":[4,2]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query with refused geometry: status %d", w.Code)
	}

	parse := func(docs ...string) (*geometry, error) {
		infos := make([]*shardInfo, len(docs))
		for i, doc := range docs {
			infos[i] = new(shardInfo)
			if err := json.Unmarshal([]byte(doc), infos[i]); err != nil {
				t.Fatal(err)
			}
		}
		return buildGeometry(infos)
	}
	if _, err := parse(info(0, 0, 4), info(1, 4, 4)); err != nil {
		t.Fatalf("tiling blocks refused: %v", err)
	}
	if _, err := parse(info(0, 0, 4), info(1, 3, 4)); err == nil {
		t.Fatal("overlapping blocks accepted")
	}
	if _, err := parse(info(0, 0, 3), info(1, 4, 4)); err == nil {
		t.Fatal("blocks with a hole accepted")
	}
	// owner is a binary search over prefix offsets; an empty block shares
	// its successor's offset and owns nothing.
	g, err := parse(info(0, 0, 4), info(1, 4, 0), info(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for rank, want := range []int{0, 0, 0, 0, 2, 2, 2, 2} {
		if got := g.owner(rank); got != want {
			t.Errorf("owner(%d) = %d, want %d", rank, got, want)
		}
	}
}

// TestWorkerShardView pins the worker's global-frame contract directly:
// global ranks, global coordinates, ErrPointNotIndexed outside its
// bounds, ErrRankOutOfRange outside its block, and box, pages, I/O and
// batch answers equal to the oracle's inside its block.
func TestWorkerShardView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	q, err := OpenShardWorker(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	v := q.(*ShardView)
	lo, _, off, recs := oracle.ShardBounds(1)

	if v.N() != recs || v.TotalN() != oracle.N() {
		t.Fatalf("N=%d TotalN=%d, want %d/%d", v.N(), v.TotalN(), recs, oracle.N())
	}
	// Every rank in the block round-trips in the global frame.
	for r := off; r < off+recs; r++ {
		coords, err := v.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := oracle.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coords, oc) {
			t.Fatalf("point %d = %v, oracle %v", r, coords, oc)
		}
		rr, err := v.Rank(coords...)
		if err != nil || rr != r {
			t.Fatalf("rank(%v) = %d, %v", coords, rr, err)
		}
	}
	// Outside the block: refused even though globally valid.
	if _, err := v.Point(off - 1); err == nil {
		t.Fatal("foreign rank accepted")
	}
	// A point of shard 0 answers not-indexed here.
	foreign, err := oracle.Point(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = lo
	if _, err := v.Rank(foreign...); err == nil {
		t.Fatal("foreign point accepted")
	}

	// The box surface, for every shard of a grid and of an overlapping
	// point-set container: for boxes inside, straddling and missing the
	// shard, Scan yields the oracle's rows inside the shard's rank block,
	// and Pages, QueryIO and QueryBatch equal what the global pager
	// computes from those rows' ranks. A cancelled context answers
	// context.Canceled and a closed view ErrIndexClosed.
	for _, fl := range []struct {
		name  string
		opt   spectrallpm.BuildOption
		extra []spectrallpm.Box
	}{
		{"grid", spectrallpm.WithGrid(16, 16), []spectrallpm.Box{
			{Start: []int{0, 0}, Dims: []int{16, 16}},
			{Start: []int{6, 6}, Dims: []int{4, 4}},
			{Start: []int{0, 0}, Dims: []int{1, 1}},
		}},
		{"points", spectrallpm.WithPoints(clusterPoints()), []spectrallpm.Box{
			{Start: []int{0, 0}, Dims: []int{32, 32}},
			{Start: []int{13, 13}, Dims: []int{2, 2}},
			{Start: []int{40, 40}, Dims: []int{4, 4}},
		}},
	} {
		t.Run(fl.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sharded.slpm")
			writeShardedFile(t, path, 4, fl.opt, spectrallpm.WithPageSize(4))
			oracle := openOracle(t, path)
			if fl.name == "points" && !boundsOverlap(oracle) {
				t.Fatal("no two point-set shards overlap; the flavor tests nothing")
			}
			pager, err := storage.NewPager(oracle.N(), oracle.RecordsPerPage())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			var inside, straddle, miss int
			for s := 0; s < oracle.NumShards(); s++ {
				q, err := OpenShardWorker(path, s)
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				lo, hi, off, recs := oracle.ShardBounds(s)
				first, err := oracle.Point(off)
				if err != nil {
					t.Fatal(err)
				}
				boxes := append([]spectrallpm.Box{
					{Start: first, Dims: []int{1, 1}},
					{Start: lo, Dims: []int{hi[0] - lo[0] + 1, hi[1] - lo[1] + 1}},
				}, fl.extra...)
				var wantIO []spectrallpm.IOStats
				for _, b := range boxes {
					var want [][]int
					var ranks []int
					all := oracleRows(t, oracle, b)
					for _, row := range all {
						if row[0] >= off && row[0] < off+recs {
							want = append(want, row)
							ranks = append(ranks, row[0])
						}
					}
					switch {
					case len(want) == 0:
						miss++
					case len(want) < len(all):
						straddle++
					default:
						inside++
					}
					var got [][]int
					if err := q.ScanIntoContext(ctx, b, func(rank int, coords []int) bool {
						got = append(got, append([]int{rank}, coords...))
						return true
					}); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("shard %d box %v scan:\n got %v\nwant %v", s, b, got, want)
					}
					wantRuns, err := pager.Runs(ranks)
					if err != nil {
						t.Fatal(err)
					}
					runs, err := q.PagesIntoContext(ctx, b, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(runs, wantRuns) {
						t.Fatalf("shard %d box %v pages: got %v want %v", s, b, runs, wantRuns)
					}
					io, err := pager.QueryIO(ranks)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := q.QueryIOContext(ctx, b); err != nil || got != io {
						t.Fatalf("shard %d box %v io: got %+v, %v want %+v", s, b, got, err, io)
					}
					wantIO = append(wantIO, io)
				}
				gotIO, err := q.QueryBatchContext(ctx, boxes)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotIO, wantIO) {
					t.Fatalf("shard %d batch: got %+v want %+v", s, gotIO, wantIO)
				}
				checkDeadView(t, cancelled, q, boxes[0], context.Canceled)
			}
			if inside == 0 || straddle == 0 || miss == 0 {
				t.Fatalf("boxes inside/straddling/missing their shard: %d/%d/%d, want each > 0", inside, straddle, miss)
			}
			q, err := OpenShardWorker(path, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			checkDeadView(t, ctx, q, spectrallpm.Box{Start: []int{0, 0}, Dims: []int{2, 2}}, spectrallpm.ErrIndexClosed)
		})
	}
}

// checkDeadView asserts that every box query of q under ctx fails with
// want.
func checkDeadView(t *testing.T, ctx context.Context, q server.Queryable, b spectrallpm.Box, want error) {
	t.Helper()
	_, pagesErr := q.PagesIntoContext(ctx, b, nil)
	_, ioErr := q.QueryIOContext(ctx, b)
	_, batchErr := q.QueryBatchContext(ctx, []spectrallpm.Box{b})
	scanErr := q.ScanIntoContext(ctx, b, func(int, []int) bool { return true })
	for name, err := range map[string]error{"pages": pagesErr, "io": ioErr, "batch": batchErr, "scan": scanErr} {
		if !errors.Is(err, want) {
			t.Errorf("%s: err %v, want %v", name, err, want)
		}
	}
}

// TestWorkerZeroAlloc pins the mapped worker's steady-state Scan, Pages
// and QueryIO at zero heap allocations: the view serves from the same
// pooled core as a mapped ShardedIndex.
func TestWorkerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 4, spectrallpm.WithGrid(64, 64), spectrallpm.WithPageSize(16))
	q, err := OpenShardWorker(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx := context.Background()
	box := spectrallpm.Box{Start: []int{20, 20}, Dims: []int{24, 24}} // crosses the shard's cuts
	n := 0
	yield := func(int, []int) bool { n++; return true }
	dst := make([]spectrallpm.PageRun, 0, 256)
	for name, f := range map[string]func(){
		"scan": func() {
			if err := q.ScanIntoContext(ctx, box, yield); err != nil {
				t.Fatal(err)
			}
		},
		"pages": func() {
			if dst, err = q.PagesIntoContext(ctx, box, dst[:0]); err != nil {
				t.Fatal(err)
			}
		},
		"queryio": func() {
			if _, err := q.QueryIOContext(ctx, box); err != nil {
				t.Fatal(err)
			}
		},
	} {
		f() // warm the pools
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
	if n == 0 {
		t.Fatal("scan yielded nothing; the box misses the shard")
	}
}

// TestBatchOnePartPerShard pins the batch plan: a 16-box batch reaches
// each worker as at most one request, and the answer is byte-identical to
// the monolithic ShardedIndex's. The boxes straddle shard cuts, and in the
// point-set flavor, whose shard bounding boxes overlap, some touch no
// shard at all. With one shard's only replica down, -partial labels
// exactly that shard, and the boxes that miss it keep their exact stats.
func TestBatchOnePartPerShard(t *testing.T) {
	pts := clusterPoints()
	flavors := []struct {
		name  string
		opt   spectrallpm.BuildOption
		boxes []spectrallpm.Box
	}{
		{"grid", spectrallpm.WithGrid(16, 16), nil},
		{"points", spectrallpm.WithPoints(pts), []spectrallpm.Box{
			{Start: []int{40, 40}, Dims: []int{4, 4}},   // beyond every point
			{Start: []int{13, 13}, Dims: []int{2, 2}},   // between the clusters
			{Start: []int{0, 0}, Dims: []int{32, 32}},   // everything
			{Start: []int{100, 0}, Dims: []int{1, 100}}, // far outside
		}},
	}
	for _, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sharded.slpm")
			writeShardedFile(t, path, 4, fl.opt, spectrallpm.WithPageSize(4))
			oracle := openOracle(t, path)
			if fl.name == "points" && !boundsOverlap(oracle) {
				t.Fatal("no two point-set shards overlap; the flavor tests nothing")
			}
			boxes := fl.boxes
			for i := 0; len(boxes) < 16; i++ {
				boxes = append(boxes, spectrallpm.Box{Start: []int{(5 * i) % 12, (3 * i) % 11}, Dims: []int{2 + i%5, 3 + i%4}})
			}
			var bodies []string
			for _, b := range boxes {
				bodies = append(bodies, boxBody(b))
			}
			batch := `{"boxes":[` + strings.Join(bodies, ",") + `]}`
			want, err := oracle.QueryBatchContext(context.Background(), boxes)
			if err != nil {
				t.Fatal(err)
			}

			workers := make([]*worker, 4)
			for s := range workers {
				workers[s] = startWorker(t, path, s, nil)
			}
			topo := fullTopology(workers, 4, 1)
			strict := startRouter(t, topo, nil)
			partial := startRouter(t, topo, func(c *RouterConfig) {
				c.Partial = true
				c.AttemptTimeout = 300 * time.Millisecond
				c.Retries = 1
			})
			handshake(t, strict)
			handshake(t, partial)

			before := acceptedCounts(t, workers)
			w := rpost(strict, "/v1/batch", batch)
			if w.Code != http.StatusOK {
				t.Fatalf("batch: status %d body %q", w.Code, w.Body)
			}
			if exp := server.AppendBatchResponse(nil, want, nil); !slices.Equal(w.Body.Bytes(), exp) {
				t.Fatalf("batch:\n got %s\nwant %s", w.Body, exp)
			}
			for s, n := range acceptedCounts(t, workers) {
				if d := n - before[s]; d > 1 {
					t.Fatalf("worker %d accepted %d requests for one batch", s, d)
				}
			}

			// Shard 2's only replica dies: every box that touches it loses
			// its part, the label names exactly shard 2, and the boxes that
			// miss it answer exactly.
			const down = 2
			workers[down].ts.Close()
			w = rpost(partial, "/v1/batch", batch)
			if w.Code != http.StatusOK {
				t.Fatalf("partial batch: status %d body %q", w.Code, w.Body)
			}
			var got struct {
				Stats []struct {
					Pages     int `json:"pages"`
					Seeks     int `json:"seeks"`
					SpanPages int `json:"span_pages"`
				} `json:"stats"`
				ShardsMissing []int `json:"shards_missing"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.ShardsMissing, []int{down}) || len(got.Stats) != len(boxes) {
				t.Fatalf("partial batch: %d stats, shards_missing %v, want %d and [%d]", len(got.Stats), got.ShardsMissing, len(boxes), down)
			}
			cs, cd := make([]int, 2), make([]int, 2)
			touches := func(s int, b spectrallpm.Box) bool {
				lo, hi, _, _ := oracle.ShardBounds(s)
				return shard.ClipBox(b.Start, b.Dims, lo, hi, cs, cd)
			}
			spread := make([]int, 5) // boxes by number of shards touched
			missed := 0
			for i, b := range boxes {
				n := 0
				for s := range workers {
					if touches(s, b) {
						n++
					}
				}
				spread[n]++
				if touches(down, b) {
					continue
				}
				missed++
				if spectrallpm.IOStats(got.Stats[i]) != want[i] {
					t.Fatalf("box %d misses shard %d but answers %+v, want %+v", i, down, got.Stats[i], want[i])
				}
			}
			if missed == 0 || spread[2]+spread[3]+spread[4] == 0 || fl.name == "points" && spread[0] == 0 {
				t.Fatalf("boxes by shards touched %v, %d missing shard %d: the batch does not cover the plan's cases", spread, missed, down)
			}
			if n := server.ProtoLive(); n != 0 {
				t.Fatalf("%d protocol scratches leaked", n)
			}
		})
	}
}

// clusterPoints is a point set of three clusters in a 32×32 frame, with
// empty space between them; sharded 4 ways, its shard bounding boxes
// overlap.
func clusterPoints() [][]int {
	var pts [][]int
	seen := map[[2]int]bool{}
	x := uint32(7)
	for _, c := range [][4]int{{2, 2, 10, 10}, {18, 4, 12, 9}, {6, 18, 12, 12}} {
		for range 40 {
			x = x*1664525 + 1013904223
			p := [2]int{c[0] + int(x>>8)%c[2], c[1] + int(x>>20)%c[3]}
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p[:])
			}
		}
	}
	return pts
}

// boundsOverlap reports whether any two shards' bounding boxes intersect.
func boundsOverlap(sx *spectrallpm.ShardedIndex) bool {
	for a := 0; a < sx.NumShards(); a++ {
		for b := a + 1; b < sx.NumShards(); b++ {
			alo, ahi, _, _ := sx.ShardBounds(a)
			blo, bhi, _, _ := sx.ShardBounds(b)
			dims := make([]int, len(alo))
			for j := range dims {
				dims[j] = ahi[j] - alo[j] + 1
			}
			if shard.ClipBox(alo, dims, blo, bhi, make([]int, len(alo)), make([]int, len(alo))) {
				return true
			}
		}
	}
	return false
}

// acceptedCounts reads each worker's /stats "accepted" counter.
func acceptedCounts(t *testing.T, workers []*worker) []int {
	t.Helper()
	out := make([]int, len(workers))
	for s, w := range workers {
		var st struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(askWorker(t, w, "/stats", ""), &st); err != nil {
			t.Fatal(err)
		}
		out[s] = st.Accepted
	}
	return out
}
