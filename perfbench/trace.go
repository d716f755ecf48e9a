package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
)

// spanKind names the layer a handler span belongs to.
type spanKind int

const (
	spanTop    spanKind = iota // the handler clients talk to: the daemon's or the router's
	spanWorker                 // a shard worker's handler
)

// span is one handler invocation.
type span struct {
	start, end time.Time
	bytes      int64
}

// tracer records handler spans (from a wrapper around each server's
// http.Handler) and engine spans (from a decorator around each served
// Queryable). Recording is off until on is set, so the same servers serve
// the untraced and the traced pass. Spans are attributed to the request
// in flight, which is exact because traced passes use a single client.
type tracer struct {
	on      atomic.Bool
	pending atomic.Int64 // handler spans still open
	engine  atomic.Int64 // ns spent in Queryable calls

	mu      sync.Mutex
	top     []span
	workers []span
}

// reqSpans is one request's recorded spans.
type reqSpans struct {
	top     []span
	workers []span
	engine  time.Duration
}

// wrapHandler times every query request h serves. A nil tracer returns h.
func (tr *tracer) wrapHandler(h http.Handler, kind spanKind) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		tr.pending.Add(1)
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		sp := span{start: t0, end: time.Now(), bytes: cw.n}
		tr.mu.Lock()
		if kind == spanWorker {
			tr.workers = append(tr.workers, sp)
		} else {
			tr.top = append(tr.top, sp)
		}
		tr.mu.Unlock()
		tr.pending.Add(-1)
	})
}

// take waits until every open handler span has closed and returns the
// spans recorded since the last call.
func (tr *tracer) take() reqSpans {
	for tr.pending.Load() != 0 {
		runtime.Gosched()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := reqSpans{top: tr.top, workers: tr.workers, engine: time.Duration(tr.engine.Swap(0))}
	tr.top, tr.workers = nil, nil
	return out
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrapQ decorates a served Queryable with engine spans. A nil tracer
// returns q.
func (tr *tracer) wrapQ(q server.Queryable) server.Queryable {
	if tr == nil {
		return q
	}
	return &tracedQ{Queryable: q, tr: tr}
}

type tracedQ struct {
	server.Queryable
	tr *tracer
}

func (q *tracedQ) since(t0 time.Time) { q.tr.engine.Add(int64(time.Since(t0))) }

func (q *tracedQ) Rank(coords ...int) (int, error) {
	if !q.tr.on.Load() {
		return q.Queryable.Rank(coords...)
	}
	defer q.since(time.Now())
	return q.Queryable.Rank(coords...)
}

func (q *tracedQ) Point(rank int) ([]int, error) {
	if !q.tr.on.Load() {
		return q.Queryable.Point(rank)
	}
	defer q.since(time.Now())
	return q.Queryable.Point(rank)
}

func (q *tracedQ) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(int, []int) bool) error {
	if !q.tr.on.Load() {
		return q.Queryable.ScanIntoContext(ctx, b, yield)
	}
	defer q.since(time.Now())
	return q.Queryable.ScanIntoContext(ctx, b, yield)
}

func (q *tracedQ) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	if !q.tr.on.Load() {
		return q.Queryable.PagesIntoContext(ctx, b, dst)
	}
	defer q.since(time.Now())
	return q.Queryable.PagesIntoContext(ctx, b, dst)
}

func (q *tracedQ) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	if !q.tr.on.Load() {
		return q.Queryable.QueryBatchContext(ctx, boxes)
	}
	defer q.since(time.Now())
	return q.Queryable.QueryBatchContext(ctx, boxes)
}

// union returns the time covered by at least one span.
func union(sps []span) time.Duration {
	if len(sps) == 0 {
		return 0
	}
	s := slices.Clone(sps)
	slices.SortFunc(s, func(a, b span) int { return a.start.Compare(b.start) })
	var total time.Duration
	cur := s[0]
	for _, sp := range s[1:] {
		if sp.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = sp
		} else if sp.end.After(cur.end) {
			cur.end = sp.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

func sumSpans(sps []span) (d time.Duration, bytes int64) {
	for _, sp := range sps {
		d += sp.end.Sub(sp.start)
		bytes += sp.bytes
	}
	return d, bytes
}

// opAcc accumulates one op class's traced requests.
type opAcc struct {
	n, untracedN                        int
	untraced, traced                    float64 // client latency, ns
	handler, engine                     float64 // ns
	routerTop, upstream                 float64 // ns
	parts, planned                      int
	respBytes, replyBytes               float64
	transport                           float64 // no-op handler latency, ns
	transportN                          int
	decodeNs                            float64
	replayN                             int
	replayNs, rows, pageRuns, span, run float64
}

// runServingTraced is the --trace 1 run of a serving workload.
func runServingTraced(ctx context.Context, opt options, rep *report, setup func(context.Context, options, *tracer, int) (*fleet, server.Queryable, setupTimes, error), m mix) (*report, error) {
	tr := &tracer{}
	f, built, ts, err := setup(ctx, opt, tr, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer f.close()
	rep.set("write_ms", "ms", ms(ts.write))
	rep.set("open_ms", "ms", ms(ts.open))
	var cut cuts
	if f.sharded != nil {
		cut = cutsOf(f.sharded)
	}
	reqs := generate(opt.seed, opt.size.requests, opt.size.side, opt.size.batch, m, cut)
	if err := oracle(built, reqs); err != nil {
		return nil, err
	}
	canned, err := cannedResponses(built, reqs)
	if err != nil {
		return nil, err
	}
	built = nil

	clients := make([]*httpClient, opt.size.clients)
	for i := range clients {
		clients[i] = newHTTPClient(f.front)
		defer clients[i].close()
	}
	send := func(w int, r *request) error { return clients[w].send(r) }
	warm := closedLoop(len(clients), time.Second, 0, 0, reqs, send)
	rep.count(warm.attempted, warm.failed)

	var acc [numOps]opAcc
	passDur := min(max(secondsDur(opt.seconds)/4, 500*time.Millisecond), 3*time.Second)

	// Paired single-client passes: every request is sent once untraced and
	// once traced, alternating which goes first, so the difference is the
	// tracing overhead on the same load.
	var (
		n        int
		attempts int64
		failed   int64
	)
	for deadline := time.Now().Add(passDur); time.Now().Before(deadline); n++ {
		r := reqs[n%len(reqs)]
		a := &acc[r.op]
		for k := 0; k < 2; k++ {
			traced := (n+k)%2 == 1
			tr.on.Store(traced)
			tr.take()
			t0 := time.Now()
			err := clients[0].send(r)
			lat := float64(time.Since(t0))
			sp := tr.take()
			attempts++
			if err != nil {
				failed++
				continue
			}
			if !traced {
				a.untraced += lat
				a.untracedN++
				continue
			}
			a.n++
			a.traced += lat
			a.engine += float64(sp.engine)
			a.respBytes += float64(r.size)
			top, _ := sumSpans(sp.top)
			if f.router == nil {
				a.handler += float64(top)
				continue
			}
			wsum, wbytes := sumSpans(sp.workers)
			a.routerTop += float64(top)
			a.handler += float64(wsum)
			a.upstream += float64(union(sp.workers))
			a.parts += len(sp.workers)
			a.replyBytes += float64(wbytes)
			a.planned += plannedParts(f.sharded, r)
		}
	}
	tr.on.Store(false)
	rep.count(attempts, failed)

	// Loaded pass: process counters and /stats deltas under the workload's
	// closed loop, tracing off.
	loadDur := min(max(secondsDur(opt.seconds)/2, time.Second), 5*time.Second)
	before, err := fleetStats(f)
	if err != nil {
		return nil, err
	}
	p0 := readProcess()
	ld := closedLoop(len(clients), loadDur, 0, 0, reqs, send)
	p1 := readProcess()
	rep.count(ld.attempted, ld.failed)
	after, err := fleetStats(f)
	if err != nil {
		return nil, err
	}

	// Harness baseline: the same client loop against a handler that only
	// reads the request and writes a canned response of the real size.
	noop, err := listen(noopHandler(canned))
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(noop.addr)
	echo := func(_ int, r *request) error {
		status, _, err := hc.do(r)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("no-op handler answered %d", status)
		}
		return err
	}
	hcs := []*httpClient{hc, newHTTPClient(noop.addr)}
	echo2 := func(w int, r *request) error { _, _, err := hcs[w].do(r); return err }
	closedLoop(len(hcs), 300*time.Millisecond, 0, 0, reqs, echo2)
	base := closedLoop(1, 0, n, 0, reqs, echo)
	b0 := readProcess()
	bl := closedLoop(len(hcs), loadDur, 0, 0, reqs, echo2)
	b1 := readProcess()
	for _, c := range hcs {
		c.close()
	}
	noop.close()
	for op := range acc {
		acc[op].transportN = len(base.lat[op])
		for _, l := range base.lat[op] {
			acc[op].transport += float64(l)
		}
	}
	rep.set("harness.rtt_us", "us", percentile(base.lat[opLookup], 0.5)/1e3)

	if err := replayEngine(ctx, f, reqs, &acc); err != nil {
		return nil, err
	}
	if err := replayDecode(reqs, &acc); err != nil {
		return nil, err
	}
	rep.set("server.encode_ns_per_row", "ns", encodeNsPerRow())

	// Per-op layer metrics.
	var untracedSum, tracedSum float64
	for op := opClass(0); op < numOps; op++ {
		a := &acc[op]
		name := opNames[op]
		k := float64(max(a.n, 1))
		unN := float64(max(a.untracedN, 1))
		untracedSum += a.untraced
		tracedSum += a.traced
		transport := a.transport / float64(max(a.transportN, 1))
		rep.set("transport.us."+name, "us", transport/1e3)
		rep.set("server.handler_us."+name, "us", a.handler/k/1e3)
		rep.set("server.self_us."+name, "us", (a.handler-a.engine)/k/1e3)
		rep.set("server.resp_bytes."+name, "B", a.respBytes/k)
		rep.set("router.handler_us."+name, "us", a.routerTop/k/1e3)
		rep.set("router.upstream_us."+name, "us", a.upstream/k/1e3)
		rep.set("router.self_us."+name, "us", (a.routerTop-a.upstream)/k/1e3)
		rep.set("router.parts."+name, "count", float64(a.parts)/k)
		rep.set("router.reply_bytes."+name, "B", a.replyBytes/k)
		rep.set("trace.client_us."+name, "us", a.traced/k/1e3)
		rep.set("trace.overhead_us."+name, "us", (a.traced/k-a.untraced/unN)/1e3)
		if op == opLookup || op == opBox4k {
			top := a.handler
			if f.router != nil {
				top = a.routerTop
			}
			rep.set("trace.coverage."+name, "ratio", (transport+top/k)/(a.traced/k))
		}
	}
	rep.set("trace.overhead_pct", "%", 100*(tracedSum/untracedSum-1))
	var parts, planned int
	for _, a := range acc {
		parts += a.parts
		planned += a.planned
	}
	if planned > 0 {
		rep.set("router.attempts_per_part", "ratio", float64(parts)/float64(planned))
	} else {
		rep.set("router.attempts_per_part", "ratio", 0)
	}
	engineMetrics(rep, &acc)

	// Healthy-run counters and process costs of the loaded pass.
	for _, c := range []string{"shed", "expired"} {
		rep.set("server."+c, "count", after.server[c]-before.server[c])
	}
	for _, c := range []string{"hedges", "retries", "partials", "ejections"} {
		rep.set("router."+c, "count", after.router[c]-before.router[c])
	}
	processMetrics(rep, ld, p0, p1, bl, b0, b1)
	rep.notef("%s traced: %d single-client requests, %d loaded requests, %d baseline requests",
		opt.workload, n, ld.attempted, bl.attempted)

	if err := buildLayers(ctx, opt, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// plannedParts is the number of shard requests the router's plan needs
// for r: one per intersected shard per box, one for a lookup.
func plannedParts(sx *spectrallpm.ShardedIndex, r *request) int {
	if len(r.boxes) == 0 {
		return 1
	}
	n := 0
	for _, b := range r.boxes {
		n += partsOf(sx, b)
	}
	return n
}

// cannedResponses returns, per op class, the oracle response of the first
// request of that class: the no-op handler's reply.
func cannedResponses(q server.Queryable, reqs []*request) (map[string][]byte, error) {
	out := map[string][]byte{}
	ps := server.GetProto()
	defer ps.Put()
	for _, r := range reqs {
		if _, ok := out[r.path]; ok {
			continue
		}
		if err := answer(context.Background(), q, r, ps); err != nil {
			return nil, err
		}
		out[r.path] = bytes.Clone(ps.Buf)
	}
	return out, nil
}

func noopHandler(canned map[string][]byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		body := canned[r.URL.Path]
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
}

// counters are /stats deltas of the fleet: the daemon's or the workers'
// summed, and the router's.
type counters struct {
	server, router map[string]float64
}

func fleetStats(f *fleet) (counters, error) {
	c := counters{server: map[string]float64{}, router: map[string]float64{}}
	for i, s := range f.lns {
		var st map[string]any
		body, err := getOnce(s.addr, "/stats")
		if err != nil {
			return c, err
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return c, fmt.Errorf("stats: %w", err)
		}
		if f.router != nil && i == len(f.lns)-1 {
			c.router["hedges"] = num(st["hedges"])
			c.router["retries"] = num(st["retries"])
			c.router["partials"] = num(st["partial_responses"])
			c.router["ejections"] = num(st["ejections"])
			continue
		}
		c.server["shed"] += num(st["shed"])
		c.server["expired"] += num(st["expired"])
	}
	return c, nil
}

func getOnce(addr, path string) ([]byte, error) {
	c := newHTTPClient(addr)
	defer c.close()
	return c.get(path)
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// processSample is a snapshot of the process's allocation, GC and CPU
// counters.
type processSample struct {
	mallocs, bytes uint64
	numGC          uint32
	pauseNs        uint64
	cpu            time.Duration
}

func readProcess() processSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return processSample{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// processMetrics reports the loaded pass's per-request allocations and CPU
// net of the harness baseline (the same clients against the no-op
// handler), so the load generator's own cost is not counted.
func processMetrics(rep *report, ld *loadStats, p0, p1 processSample, bl *loadStats, b0, b1 processSample) {
	per := func(d float64, st *loadStats) float64 { return d / float64(max(st.attempted, 1)) }
	rep.set("process.allocs_per_op", "count", per(float64(p1.mallocs-p0.mallocs), ld)-per(float64(b1.mallocs-b0.mallocs), bl))
	rep.set("process.bytes_per_op", "B", per(float64(p1.bytes-p0.bytes), ld)-per(float64(b1.bytes-b0.bytes), bl))
	rep.set("process.cpu_ms_per_kop", "ms", 1000*(per(ms(p1.cpu-p0.cpu), ld)-per(ms(b1.cpu-b0.cpu), bl)))
	rep.set("process.gc_cycles", "count", float64(p1.numGC-p0.numGC))
	rep.set("process.gc_pause_ms", "ms", float64(p1.pauseNs-p0.pauseNs)/1e6)
}

// replayEngine times every request's Queryable calls in-process with a
// no-op yield, on the Queryables the servers serve: the daemon's mapped
// index, or each shard worker's view for the parts the router plans.
func replayEngine(ctx context.Context, f *fleet, reqs []*request, acc *[numOps]opAcc) error {
	type part struct {
		q   server.Queryable
		box spectrallpm.Box
	}
	plan := func(b spectrallpm.Box) []part {
		if f.sharded == nil {
			return []part{{f.views[0], b}}
		}
		var out []part
		for i, v := range f.views {
			lo, hi, _, _ := f.sharded.ShardBounds(i)
			cs, cd := make([]int, len(b.Start)), make([]int, len(b.Start))
			if shard.ClipBox(b.Start, b.Dims, lo, hi, cs, cd) {
				out = append(out, part{v, spectrallpm.Box{Start: cs, Dims: cd}})
			}
		}
		return out
	}
	owner := func(r *request) server.Queryable {
		if f.sharded == nil {
			return f.views[0]
		}
		for i, v := range f.views {
			lo, hi, off, n := f.sharded.ShardBounds(i)
			if r.path == "/v1/point" && r.rank >= off && r.rank < off+n {
				return v
			}
			if r.path == "/v1/rank" && r.coords[0] >= lo[0] && r.coords[0] <= hi[0] && r.coords[1] >= lo[1] && r.coords[1] <= hi[1] {
				return v
			}
		}
		return f.views[0]
	}
	noop := func(int, []int) bool { return true }
	var runs []spectrallpm.PageRun
	var ranks []int
	// replay issues r's engine calls: one per planned part, or one batch
	// call on the daemon.
	replay := func(r *request, parts [][]part) error {
		var err error
		switch r.path {
		case "/v1/rank":
			_, err = owner(r).Rank(r.coords...)
			return err
		case "/v1/point":
			_, err = owner(r).Point(r.rank)
			return err
		case "/v1/batch":
			if f.sharded == nil {
				_, err = f.views[0].QueryBatchContext(ctx, r.boxes)
				return err
			}
		}
		for _, ps := range parts {
			for _, p := range ps {
				if r.path == "/v1/box" {
					err = p.q.ScanIntoContext(ctx, p.box, noop)
				} else {
					runs, err = p.q.PagesIntoContext(ctx, p.box, runs[:0])
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, r := range reqs {
		a := &acc[r.op]
		var parts [][]part
		for _, b := range r.boxes {
			parts = append(parts, plan(b))
		}
		t0 := time.Now()
		err := replay(r, parts)
		a.replayNs += float64(time.Since(t0))
		a.replayN++
		if err != nil {
			return fmt.Errorf("engine replay %s %s: %w", r.path, r.body, err)
		}
		// Untimed: the locality counts of the same request.
		switch r.op {
		case opBox256, opBox4k:
			ranks = ranks[:0]
			for _, p := range parts[0] {
				p.q.ScanIntoContext(ctx, p.box, func(rank int, _ []int) bool {
					ranks = append(ranks, rank)
					return true
				})
			}
			slices.Sort(ranks)
			a.rows += float64(len(ranks))
			if len(ranks) > 0 {
				a.span += float64(ranks[len(ranks)-1] - ranks[0] + 1)
				a.run++
				for i := 1; i < len(ranks); i++ {
					if ranks[i] != ranks[i-1]+1 {
						a.run++
					}
				}
			}
		case opPages:
			for _, p := range parts[0] {
				runs, _ = p.q.PagesIntoContext(ctx, p.box, runs[:0])
				a.pageRuns += float64(len(runs))
			}
		}
	}
	return nil
}

// replayDecode times server.DecodeRequest on every request body.
func replayDecode(reqs []*request, acc *[numOps]opAcc) error {
	for _, r := range reqs {
		var dst any
		switch r.path {
		case "/v1/rank":
			dst = &server.RankRequest{}
		case "/v1/point":
			dst = &server.PointRequest{}
		case "/v1/box", "/v1/pages":
			dst = &server.BoxRequest{}
		default:
			dst = &server.BatchRequest{}
		}
		hr := &http.Request{Body: io.NopCloser(bytes.NewReader(r.body))}
		t0 := time.Now()
		err := server.DecodeRequest(hr, dst)
		acc[r.op].decodeNs += float64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("decode replay %s: %w", r.body, err)
		}
	}
	return nil
}

// encodeNsPerRow times server.AppendBoxRow over a 64×64 box of rows.
func encodeNsPerRow() float64 {
	buf := make([]byte, 0, 1<<20)
	coords := []int{0, 0}
	const rows = 4096
	const reps = 200
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		buf = buf[:0]
		for i := 0; i < rows; i++ {
			coords[0], coords[1] = i&63+k, i>>6+512
			buf = server.AppendBoxRow(buf, i == 0, 500000+i, coords)
		}
	}
	return float64(time.Since(t0)) / (rows * reps)
}

// engineMetrics reports the replayed decode and engine times and the
// locality counts, per request of each op class.
func engineMetrics(rep *report, acc *[numOps]opAcc) {
	for op := opClass(0); op < numOps; op++ {
		a := &acc[op]
		k := float64(max(a.replayN, 1))
		name := opNames[op]
		rep.set("server.decode_us."+name, "us", a.decodeNs/k/1e3)
		rep.set("engine.us."+name, "us", a.replayNs/k/1e3)
		switch op {
		case opBox256, opBox4k:
			rep.set("engine.rows."+name, "count", a.rows/k)
			rep.set("engine.rank_span."+name, "count", a.span/k)
			rep.set("engine.runs."+name, "count", a.run/k)
		case opPages:
			rep.set("engine.page_runs.pages", "count", a.pageRuns/k)
		}
	}
}
