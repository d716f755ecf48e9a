//go:build faultinject

// Cluster chaos tests: the acceptance drill for the distributed serving
// path. Run with
//
//	go test -race -tags faultinject ./internal/cluster/
//
// Across well over 100 iterations of induced failure — workers stalling
// mid-reply, a shard's whole replica set unreachable, the router's dial
// path degraded, the router itself overloaded — every single router
// response must be either rank-for-rank identical to the monolithic
// ShardedIndex answer, an explicitly labeled partial result, or (under
// overload) a 429 shed before any fan-out. Zero torn or silently-wrong
// responses, ever.
//
// The faultinject registry is process-global, so latches installed here
// self-limit (first-firer-only per iteration) instead of assuming they
// see only one request.
package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
)

// chaosFixture is a sharded cluster plus its monolithic oracle — the
// shared plumbing for every phase.
type chaosFixture struct {
	oracle  *spectrallpm.ShardedIndex
	workers [][]*worker // [shard][replica]
	boxes   []spectrallpm.Box
	want    [][][]int // oracle rows per box
}

func newChaosFixture(t *testing.T, shards, replicas int, wrap func(shard, rep int, h http.Handler) http.Handler) *chaosFixture {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chaos.slpm")
	writeShardedFile(t, path, shards, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	f := &chaosFixture{oracle: openOracle(t, path)}
	for s := 0; s < shards; s++ {
		var reps []*worker
		for i := 0; i < replicas; i++ {
			var w *worker
			if wrap != nil {
				s, i := s, i
				w = startWorker(t, path, s, func(h http.Handler) http.Handler { return wrap(s, i, h) })
			} else {
				w = startWorker(t, path, s, nil)
			}
			reps = append(reps, w)
		}
		f.workers = append(f.workers, reps)
	}
	f.boxes = []spectrallpm.Box{
		{Start: []int{0, 0}, Dims: []int{8, 8}},
		{Start: []int{2, 3}, Dims: []int{4, 2}},
		{Start: []int{0, 3}, Dims: []int{8, 1}},
		{Start: []int{7, 7}, Dims: []int{1, 1}},
	}
	for _, b := range f.boxes {
		f.want = append(f.want, oracleRows(t, f.oracle, b))
	}
	return f
}

func (f *chaosFixture) topology() *Topology {
	topo := &Topology{}
	for s, reps := range f.workers {
		sr := ShardReplicas{Shard: s}
		for _, w := range reps {
			sr.Replicas = append(sr.Replicas, w.addr())
		}
		topo.Shards = append(topo.Shards, sr)
	}
	return topo
}

// ownerOf maps a global rank to its shard via the oracle's blocks.
func (f *chaosFixture) ownerOf(rank int) int {
	for s := 0; s < f.oracle.NumShards(); s++ {
		_, _, off, recs := f.oracle.ShardBounds(s)
		if rank >= off && rank < off+recs {
			return s
		}
	}
	return -1
}

// checkResponse asserts the one acceptance invariant: the response is
// complete and rank-for-rank equal to the oracle, or it is an explicitly
// labeled partial whose rows are exactly the oracle rows outside the
// missing shards' rank blocks. Anything else — torn, reordered,
// silently truncated — fails the run.
func (f *chaosFixture) checkResponse(t *testing.T, iter, bi int, body boxJSON) {
	t.Helper()
	want := f.want[bi]
	if body.ShardsMissing == nil {
		if body.Count != len(want) || !reflect.DeepEqual(body.Results, want) {
			t.Fatalf("iter %d box %d: complete response diverges from oracle:\n got %v\nwant %v", iter, bi, body.Results, want)
		}
		return
	}
	missing := map[int]bool{}
	for _, s := range body.ShardsMissing {
		missing[s] = true
	}
	var expect [][]int
	for _, row := range want {
		if !missing[f.ownerOf(row[0])] {
			expect = append(expect, row)
		}
	}
	if body.Count != len(expect) || !reflect.DeepEqual(body.Results, expect) {
		t.Fatalf("iter %d box %d: partial (missing %v) diverges from oracle remainder:\n got %v\nwant %v", iter, bi, body.ShardsMissing, body.Results, expect)
	}
}

// stallGate stalls the FIRST fault-point firer per iteration and releases
// it when the iteration ends, so stalled worker goroutines never pile up
// and exhaust the workers' admission slots.
type stallGate struct {
	mu  sync.Mutex
	rel chan struct{}
}

func (g *stallGate) hook() {
	g.mu.Lock()
	r := g.rel
	g.rel = nil // only the first firer this iteration stalls
	g.mu.Unlock()
	if r != nil {
		<-r
	}
}

func (g *stallGate) arm() chan struct{} {
	r := make(chan struct{})
	g.mu.Lock()
	g.rel = r
	g.mu.Unlock()
	return r
}

func (g *stallGate) release(r chan struct{}) {
	g.mu.Lock()
	g.rel = nil
	g.mu.Unlock()
	close(r)
}

// TestChaosWorkerStallHedgeRescues — Phase A. Each iteration stalls the
// first worker reply to fire; the hedge must race a second replica and
// the answer must still be complete and exact. 60 iterations.
func TestChaosWorkerStallHedgeRescues(t *testing.T) {
	defer faultinject.DisarmAll()
	f := newChaosFixture(t, 4, 2, nil)
	rt := startRouter(t, f.topology(), func(c *RouterConfig) {
		c.HedgeAfter = 3 * time.Millisecond
		c.AttemptTimeout = 5 * time.Second
		c.Retries = 1
	})
	handshake(t, rt)

	gate := &stallGate{}
	faultinject.Arm(faultinject.PointWorkerReply, gate.hook)
	defer faultinject.Disarm(faultinject.PointWorkerReply)

	const iters = 60
	for i := 0; i < iters; i++ {
		r := gate.arm()
		bi := i % len(f.boxes)
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(f.boxes[bi])))
		gate.release(r)
		if got.ShardsMissing != nil {
			t.Fatalf("iter %d: hedged read answered partial %v with a healthy replica available", i, got.ShardsMissing)
		}
		f.checkResponse(t, i, bi, got)
		runtime.Gosched() // single-P runnext starvation: let released goroutines park
	}
	if rt.remote().hedges.Load() == 0 {
		t.Fatal("stalled replies never triggered a hedge")
	}
}

// TestChaosShardOutagePartialLabeled — Phase B. Shard 1's entire replica
// set (one replica) drops mid-run: every response during the outage is
// either still complete or labeled partial with exactly shard 1 missing
// and the remaining rows oracle-exact. The worker then comes back and the
// router recovers to complete answers. The outage is a handler-level
// block rather than a faultinject latch because the process-global
// registry cannot distinguish which worker fires.
func TestChaosShardOutagePartialLabeled(t *testing.T) {
	defer faultinject.DisarmAll()
	var down atomic.Bool
	f := newChaosFixture(t, 4, 1, func(shard, rep int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Block only shard 1's query paths; /healthz stays reachable so
			// the probe can reinstate the replica after the outage lifts.
			if shard == 1 && down.Load() && strings.HasPrefix(r.URL.Path, "/v1/") {
				http.Error(w, "induced outage", http.StatusBadGateway)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	rt := startRouter(t, f.topology(), func(c *RouterConfig) {
		c.Partial = true
		c.AttemptTimeout = time.Second
		c.Retries = 1
		c.FailThreshold = 2
	})
	handshake(t, rt)

	const iters = 60
	sawPartial := 0
	for i := 0; i < iters; i++ {
		switch i {
		case 10:
			down.Store(true)
		case 40:
			down.Store(false)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			rt.ProbeOnce(ctx)
			cancel()
		}
		bi := i % len(f.boxes)
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(f.boxes[bi])))
		if got.ShardsMissing != nil {
			if !reflect.DeepEqual(got.ShardsMissing, []int{1}) {
				t.Fatalf("iter %d: shards_missing = %v, want [1]", i, got.ShardsMissing)
			}
			if i < 10 || i >= 40 {
				t.Fatalf("iter %d: partial outside the outage window", i)
			}
			sawPartial++
		}
		f.checkResponse(t, i, bi, got)
		runtime.Gosched()
	}
	if sawPartial == 0 {
		t.Fatal("outage window produced no labeled partials")
	}
	// After recovery every box answers complete again.
	for bi := range f.boxes {
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(f.boxes[bi])))
		if got.ShardsMissing != nil {
			t.Fatalf("post-recovery box %d still partial: %v", bi, got.ShardsMissing)
		}
		f.checkResponse(t, -1, bi, got)
	}
	if rt.remote().partials.Load() == 0 {
		t.Fatal("router partial counter never moved")
	}
}

// TestChaosSlowDialHedgeCovers — Phase C. The router's own dial path is
// degraded: every third dial sleeps past the hedge threshold. Answers
// must stay complete and exact throughout. 40 iterations.
func TestChaosSlowDialHedgeCovers(t *testing.T) {
	defer faultinject.DisarmAll()
	f := newChaosFixture(t, 4, 2, nil)
	rt := startRouter(t, f.topology(), func(c *RouterConfig) {
		c.HedgeAfter = 3 * time.Millisecond
		c.AttemptTimeout = 5 * time.Second
		c.Retries = 1
	})
	handshake(t, rt)

	var dialN atomic.Int64
	faultinject.Arm(faultinject.PointRouterDial, func() {
		if dialN.Add(1)%3 == 0 {
			time.Sleep(15 * time.Millisecond)
		}
	})
	defer faultinject.Disarm(faultinject.PointRouterDial)
	var hedgeFired atomic.Int64
	faultinject.Arm(faultinject.PointRouterHedge, func() { hedgeFired.Add(1) })
	defer faultinject.Disarm(faultinject.PointRouterHedge)

	const iters = 40
	for i := 0; i < iters; i++ {
		bi := i % len(f.boxes)
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(f.boxes[bi])))
		if got.ShardsMissing != nil {
			t.Fatalf("iter %d: slow dials must not lose shards, got missing %v", i, got.ShardsMissing)
		}
		f.checkResponse(t, i, bi, got)
		runtime.Gosched()
	}
	if hedgeFired.Load() == 0 {
		t.Fatal("degraded dials never crossed the hedge threshold")
	}
}

// TestChaosDeadlinePropagation pins the router's deadline behavior under
// a wedged fleet: a stalled worker with no hedge partner must surface as
// 504 (deadline) or a labeled partial — never a hang, never a torn body.
func TestChaosDeadlinePropagation(t *testing.T) {
	defer faultinject.DisarmAll()
	f := newChaosFixture(t, 2, 1, nil)
	rt := startRouter(t, f.topology(), func(c *RouterConfig) {
		c.AttemptTimeout = 60 * time.Millisecond
		c.Retries = -1 // no retry: the single stalled attempt must burn out
		c.Server.DefaultTimeout = 250 * time.Millisecond
	})
	handshake(t, rt)

	gate := &stallGate{}
	faultinject.Arm(faultinject.PointWorkerReply, gate.hook)
	defer faultinject.Disarm(faultinject.PointWorkerReply)

	for i := 0; i < 10; i++ {
		r := gate.arm()
		w := rpost(rt, "/v1/box", boxBody(f.boxes[0]))
		gate.release(r)
		// Single replica, no hedge partner: the stalled attempt burns out
		// and strict mode fails the query whole with an upstream error.
		if w.Code != http.StatusGatewayTimeout && w.Code != http.StatusBadGateway {
			t.Fatalf("iter %d: wedged fleet answered %d body %q, want 502/504", i, w.Code, w.Body)
		}
		if strings.Contains(w.Body.String(), `"results"`) {
			t.Fatalf("iter %d: error response carries a partial body: %q", i, w.Body)
		}
		runtime.Gosched()
	}
}

// TestChaosRouterOverloadSheds — Phase D. The router's shell admits one
// request and queues one more; a worker stalled mid-reply holds the
// admitted one. A third concurrent request must shed with 429 and a
// Retry-After before any fan-out (no router.dial fires for it), and once
// the worker is released the first two answer oracle-exact.
func TestChaosRouterOverloadSheds(t *testing.T) {
	defer faultinject.DisarmAll()
	f := newChaosFixture(t, 1, 1, nil)
	rt := startRouter(t, f.topology(), func(c *RouterConfig) {
		c.Server.MaxInFlight = 1
		c.Server.MaxQueued = 1
		c.Server.DefaultTimeout = 10 * time.Second
		c.AttemptTimeout = 10 * time.Second
	})
	handshake(t, rt)

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	faultinject.Arm(faultinject.PointWorkerReply, func() {
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-release
		}
	})
	var dials atomic.Int64
	faultinject.Arm(faultinject.PointRouterDial, func() { dials.Add(1) })

	body := boxBody(f.boxes[0])
	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- rpost(rt, "/v1/box", body) }()
	<-entered // the admitted request is stalled inside the worker
	go func() { results <- rpost(rt, "/v1/box", body) }()
	queued := func() float64 {
		var st map[string]any
		if err := json.Unmarshal(rget(rt, "/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		q, _ := st["queued"].(float64)
		return q
	}
	for deadline := time.Now().Add(5 * time.Second); queued() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
	}

	before := dials.Load()
	w := rpost(rt, "/v1/box", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded router answered %d %q, want 429", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	if n := dials.Load() - before; n != 0 {
		t.Fatalf("shed request fired %d router.dial", n)
	}

	close(release)
	for i := 0; i < 2; i++ {
		got := decodeBox(t, <-results)
		if got.ShardsMissing != nil {
			t.Fatalf("request %d: partial %v after release", i, got.ShardsMissing)
		}
		f.checkResponse(t, i, 0, got)
	}
	if n := server.ProtoLive(); n != 0 {
		t.Fatalf("%d protocol scratches leaked", n)
	}
}

// TestWorkerReplyFiresOncePerRequest pins the worker.reply fault point to
// one fire per worker request, however many boxes a batch carries — a
// latched stall then holds a request once, not once per box. A router
// request fires it only in the workers it reaches.
func TestWorkerReplyFiresOncePerRequest(t *testing.T) {
	defer faultinject.DisarmAll()
	f := newChaosFixture(t, 2, 1, nil)
	var fires atomic.Int64
	faultinject.Arm(faultinject.PointWorkerReply, func() { fires.Add(1) })

	var boxes []string
	for i := range 16 {
		boxes = append(boxes, boxBody(spectrallpm.Box{Start: []int{i % 7, i / 2}, Dims: []int{2, 1}}))
	}
	batch := `{"boxes":[` + strings.Join(boxes, ",") + `]}`
	w := f.workers[0][0]
	for _, tc := range []struct {
		name, path, body string
		framed           bool
	}{
		{"batch_json", "/v1/batch", batch, false},
		{"batch_framed", "/v1/batch", batch, true},
		{"box_framed", "/v1/box", boxes[0], true},
		{"pages", "/v1/pages", boxes[0], false},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		if tc.framed {
			req.Header.Set("Accept", server.FrameContentType)
		}
		rec := httptest.NewRecorder()
		before := fires.Load()
		w.srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d %q", tc.name, rec.Code, rec.Body)
		}
		if n := fires.Load() - before; n != 1 {
			t.Fatalf("%s: worker.reply fired %d times for one request", tc.name, n)
		}
	}

	// Through the router: one fire per shard part, none for the router.
	rt := startRouter(t, f.topology(), nil)
	handshake(t, rt)
	before := fires.Load()
	if w := rpost(rt, "/v1/batch", `{"boxes":[`+boxBody(f.boxes[0])+`,`+boxBody(f.boxes[3])+`]}`); w.Code != http.StatusOK {
		t.Fatalf("router batch: status %d %q", w.Code, w.Body)
	}
	if n := fires.Load() - before; n != 2 {
		t.Fatalf("a router batch over 2 shards fired worker.reply %d times, want 2", n)
	}
}
