// The router: the cluster's query front end. It owns no index data — it
// holds the static replica topology, learns the shard geometry from the
// workers, and answers every query as a Remote: a server.Queryable that
// plans one part per shard (ClipBox against each shard's bounds), fetches
// each part over the network (per-attempt timeouts, hedged reads,
// jittered-backoff retries, health-aware replica rotation), validates
// every reply, and yields the parts' rows in plan order. The handshake
// proved that shard order is rank order, so that concatenation is the
// merge. A server.Server hosts the Remote, so the router shares the
// daemon's admission, deadlines, encoding, drain and reload.
//
// Failure semantics, per endpoint class:
//
//   - box/pages/batch (collection answers): a shard whose replicas are
//     all unreachable fails the whole query in strict mode (502, or 504
//     when the deadline died first); in -partial mode the answer covers
//     the reachable shards — rank-correct for every shard present — and a
//     *server.PartialError names the unreachable shards, which the shell
//     emits as "shards_missing".
//   - rank/point (scalar answers): routed to the shard that owns the
//     coordinates or the rank block; a scalar cannot be partially
//     correct, so an unreachable owner is always an error.
//   - every per-shard reply is validated against the shard's declared
//     rank block and bounding box before it may enter an answer; a torn
//     or cross-wired reply is discarded as a replica failure.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
)

// DefaultTimeout is the router's per-request deadline when neither the
// client (timeout_ms) nor the shell configuration sets one. It is longer
// than the daemon's because one router request spans retries and hedges.
const DefaultTimeout = 5 * time.Second

// RouterConfig carries the router's tunables. The zero value of any field
// picks the default documented on it.
type RouterConfig struct {
	// Topology is the static shard→replicas layout. When nil, Open loads
	// it from the path it is given (the shell's IndexPath).
	Topology *Topology
	// Server configures the serving shell NewRouter hosts the Remote in:
	// listen address (default ":8090"), admission bounds, deadlines
	// (default DefaultTimeout) and drain budget.
	Server server.Config
	// Partial enables partial results: when a shard's replicas are all
	// unreachable, box/pages/batch answer for the reachable shards and
	// label the gap with "shards_missing" instead of failing.
	Partial bool
	// AttemptTimeout bounds each per-replica attempt (default 1s).
	AttemptTimeout time.Duration
	// HedgeAfter is the latency threshold past which the router races a
	// hedged second request against the next replica (default 50ms;
	// hedging is skipped for single-replica shards).
	HedgeAfter time.Duration
	// Retries is how many extra attempts follow a failed first one, each
	// against the next replica in rotation after a jittered exponential
	// backoff (default 2).
	Retries int
	// BackoffBase is the pre-jitter backoff before the first retry,
	// doubling per retry (default 20ms; jittered to [0.5x, 1.5x)).
	BackoffBase time.Duration
	// FailThreshold ejects a replica after this many consecutive failed
	// attempts (default 3); a background probe reinstates it.
	FailThreshold int
	// ProbeInterval is the cadence of the ejected-replica health probe and
	// of geometry-handshake retries (default 500ms).
	ProbeInterval time.Duration
	// Logf receives operational log lines (default stderr).
	Logf func(format string, args ...any)
}

func (c *RouterConfig) fillDefaults() error {
	if c.Topology == nil {
		return fmt.Errorf("cluster: router needs a topology")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 50 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 20 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lpmserve-router: "+format+"\n", args...)
		}
	}
	return nil
}

// Open is the server.Config.Open hook of a router shell: it loads the
// topology file at path (unless c.Topology is set) and returns a Remote
// over it that has run one handshake round. A reload calls it again, so
// SIGHUP re-reads the topology; a bad file fails here and the shell keeps
// serving the old Remote.
func (c RouterConfig) Open(path string) (server.Queryable, error) {
	if c.Topology == nil {
		topo, err := LoadTopology(path)
		if err != nil {
			return nil, err
		}
		c.Topology = topo
	}
	r, err := NewRemote(c)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Router is a serving shell hosting a Remote — the constructor tests and
// benchmarks use in place of a server.Config with RouterConfig.Open.
type Router struct{ *server.Server }

// NewRouter assembles the shell from cfg.Server and opens a Remote in it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	sc := cfg.Server
	if sc.Addr == "" {
		sc.Addr = ":8090"
	}
	if sc.DefaultTimeout <= 0 {
		sc.DefaultTimeout = DefaultTimeout
	}
	if sc.Logf == nil {
		sc.Logf = cfg.Logf
	}
	sc.Open = cfg.Open
	s, err := server.New(sc)
	if err != nil {
		return nil, err
	}
	return &Router{s}, nil
}

// remote returns the Remote the shell currently serves.
func (rt *Router) remote() *Remote { return rt.Index().(*Remote) }

// Ready reports whether the geometry handshake has completed.
func (rt *Router) Ready() bool { return rt.remote().Ready() }

// ProbeOnce runs one probe round of the served Remote (see
// Remote.ProbeOnce).
func (rt *Router) ProbeOnce(ctx context.Context) { rt.remote().ProbeOnce(ctx) }

// Remote answers queries by fanning them out to the shard workers of a
// topology. Create with NewRemote; Close stops its probe loop.
type Remote struct {
	cfg    RouterConfig
	shards []*shardState

	// Geometry handshake state: infos collects per-shard self-reports
	// under geoMu until all are known; geo publishes the validated whole.
	geoMu sync.Mutex
	geo   atomic.Pointer[geometry]
	infos []*shardInfo

	client *http.Client
	rng    atomic.Uint64 // splitmix64 state for backoff jitter

	stopProbes context.CancelFunc
	probesDone chan struct{}

	// Counters for /stats (monotonic).
	hedges         atomic.Int64 // hedged second requests launched
	retried        atomic.Int64 // backoff retries
	ejections      atomic.Int64 // replicas ejected
	reinstatements atomic.Int64 // replicas reinstated
	partials       atomic.Int64 // responses answered with shards_missing
}

// NewRemote validates the topology, runs one geometry handshake round and
// starts the probe loop. Workers that did not answer the handshake leave
// the Remote warming: queries answer 503 until a later round (the probe
// loop, or the first query) completes it.
func NewRemote(cfg RouterConfig) (*Remote, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	byShard := cfg.Topology.byShard()
	r := &Remote{
		cfg:    cfg,
		shards: make([]*shardState, len(byShard)),
		infos:  make([]*shardInfo, len(byShard)),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
		probesDone: make(chan struct{}),
	}
	for s, addrs := range byShard {
		ss := &shardState{id: s, replicas: make([]*replica, len(addrs))}
		for i, addr := range addrs {
			ss.replicas[i] = &replica{addr: addr}
		}
		r.shards[s] = ss
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stopProbes = cancel
	r.ProbeOnce(ctx)
	go r.probeLoop(ctx)
	return r, nil
}

// Close stops the probe loop and drops idle worker connections. Queries
// still in flight finish on their own connections.
func (r *Remote) Close() error {
	r.stopProbes()
	<-r.probesDone
	r.client.CloseIdleConnections()
	return nil
}

// Ready reports whether the geometry handshake has completed.
func (r *Remote) Ready() bool { return r.geo.Load() != nil }

// frame returns the published geometry, or an empty one while warming, so
// the shape accessors below answer zero until the handshake completes.
func (r *Remote) frame() *geometry {
	if g := r.geo.Load(); g != nil {
		return g
	}
	return &geometry{}
}

// N, D, Dims, RecordsPerPage and NumPages describe the cluster's global
// frame as the handshake learned it.
func (r *Remote) N() int              { return r.frame().total }
func (r *Remote) D() int              { return r.frame().d }
func (r *Remote) Dims() []int         { return append([]int(nil), r.frame().dims...) }
func (r *Remote) RecordsPerPage() int { return r.frame().rpp }
func (r *Remote) NumPages() int       { return r.frame().numPages }

// AddStats adds the per-replica health picture and the fan-out counters
// to the shell's /stats document.
func (r *Remote) AddStats(m map[string]any) {
	type replicaStats struct {
		Addr    string `json:"addr"`
		Ejected bool   `json:"ejected"`
		Fails   int32  `json:"consecutive_failures"`
	}
	type shardStats struct {
		Shard    int            `json:"shard"`
		Replicas []replicaStats `json:"replicas"`
	}
	shards := make([]shardStats, len(r.shards))
	for i, ss := range r.shards {
		shards[i] = shardStats{Shard: ss.id, Replicas: make([]replicaStats, len(ss.replicas))}
		for j, rep := range ss.replicas {
			shards[i].Replicas[j] = replicaStats{Addr: rep.addr, Ejected: rep.ejected.Load(), Fails: rep.fails.Load()}
		}
	}
	m["ready"] = r.Ready()
	m["partial_mode"] = r.cfg.Partial
	m["shards"] = shards
	m["hedges"] = r.hedges.Load()
	m["retries"] = r.retried.Load()
	m["ejections"] = r.ejections.Load()
	m["reinstatements"] = r.reinstatements.Load()
	m["partial_responses"] = r.partials.Load()
}

// --- transport: one attempt, hedged attempt, retry loop ---

// do performs one HTTP exchange with one replica: GET when body is nil,
// POST otherwise, bounded by ctx, body fully read. The router.dial fault
// point fires before the request leaves, so chaos tests can fail or stall
// individual dials on the fan-out path.
func (r *Remote) do(ctx context.Context, rep *replica, path string, body []byte) ([]byte, int, error) {
	faultinject.Fire(faultinject.PointRouterDial)
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+rep.addr+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// A connection severed mid-body (worker killed mid-write) lands
		// here: the reply never reaches an answer.
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}

// attemptResult is one replica's answer inside a hedged attempt.
type attemptResult struct {
	rep    *replica
	data   []byte
	status int
	err    error
}

// attemptHedged runs one bounded attempt against primary, racing a hedged
// request against backup when primary has not answered within HedgeAfter.
// First success wins; the shared attempt context is canceled on return,
// aborting the loser. Failures (transport errors and 5xx) mark the
// replica; a canceled loser marks nothing.
func (r *Remote) attemptHedged(ctx context.Context, primary, backup *replica, path string, body []byte) ([]byte, int, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	ch := make(chan attemptResult, 2) // buffered: a canceled loser's send never blocks
	launch := func(rep *replica) {
		go func() {
			data, status, err := r.do(actx, rep, path, body)
			ch <- attemptResult{rep, data, status, err}
		}()
	}
	launch(primary)
	outstanding := 1
	var hedgeC <-chan time.Time
	if backup != nil {
		t := time.NewTimer(r.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			faultinject.Fire(faultinject.PointRouterHedge)
			r.hedges.Add(1)
			launch(backup)
			outstanding++
		case res := <-ch:
			outstanding--
			if res.err == nil && res.status < http.StatusInternalServerError {
				res.rep.succeed(r)
				return res.data, res.status, nil
			}
			// Don't hold a replica's health hostage to the caller's clock:
			// an attempt cut short because the REQUEST deadline (not the
			// attempt budget) expired says nothing about the replica.
			if ctx.Err() == nil {
				res.rep.fail(r)
			}
			err := res.err
			if err == nil {
				err = fmt.Errorf("cluster: replica %s answered status %d", res.rep.addr, res.status)
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return nil, 0, firstErr
}

// fetch resolves one logical exchange with shard s: replicas are tried
// healthy-first in rotation, each attempt is hedged and bounded, and
// failed attempts retry against the next replica after a jittered
// exponential backoff. 2xx–4xx statuses return to the caller (the workers
// validate with the same rules the router does, so a 4xx is the client's
// to see); transport errors and 5xx burn the attempt, and a shard with
// no attempt left is server.ErrUnreachable.
func (r *Remote) fetch(ctx context.Context, s int, path string, body []byte) ([]byte, int, error) {
	ss := r.shards[s]
	reps := ss.order(make([]*replica, 0, len(ss.replicas)))
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			r.retried.Add(1)
			if err := r.backoff(ctx, attempt); err != nil {
				break // request deadline died waiting to retry
			}
		}
		primary := reps[attempt%len(reps)]
		var backup *replica
		if len(reps) > 1 {
			backup = reps[(attempt+1)%len(reps)]
		}
		data, status, err := r.attemptHedged(ctx, primary, backup, path, body)
		if err == nil {
			return data, status, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, 0, fmt.Errorf("cluster: shard %d: %w: %w", s, server.ErrUnreachable, lastErr)
}

// exchange fetches a scalar answer from shard s and returns a 200 reply's
// body. Other statuses carry the worker's diagnostic: 400 and 404 keep
// their meaning (the workers validate with the router's rules), anything
// else is the shard's failure.
func (r *Remote) exchange(ctx context.Context, s int, path string, body []byte) ([]byte, error) {
	data, status, err := r.fetch(ctx, s, path, body)
	if err != nil || status == http.StatusOK {
		return data, err
	}
	cause := server.ErrUnreachable
	switch status {
	case http.StatusBadRequest:
		cause = server.ErrBadRequest
	case http.StatusNotFound:
		cause = spectrallpm.ErrPointNotIndexed
	}
	return nil, fmt.Errorf("cluster: shard %d answered status %d: %s: %w", s, status, bytes.TrimSpace(data), cause)
}

// backoff sleeps the jittered exponential retry delay (ctx-bounded):
// BackoffBase doubles per retry and lands uniformly in [0.5x, 1.5x) so
// synchronized retries de-correlate.
func (r *Remote) backoff(ctx context.Context, attempt int) error {
	base := r.cfg.BackoffBase << (attempt - 1)
	d := base/2 + time.Duration(r.rand64()%uint64(base))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// rand64 draws from a lock-free splitmix64 sequence — cheap, contention
// free, and good enough to de-correlate retry storms.
func (r *Remote) rand64() uint64 {
	x := r.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- per-shard reply parsing and torn-reply validation ---

// boxReply is the wire form of a worker's POST /v1/box answer.
type boxReply struct {
	Count   int     `json:"count"`
	Results [][]int `json:"results"`
}

// pagesReply is the wire form of a worker's POST /v1/pages answer.
type pagesReply struct {
	Runs [][]int `json:"runs"`
}

// badReply reports a reply that cannot be shard s's honest answer. It is
// the shard's failure (server.ErrUnreachable), never part of an answer.
func badReply(s int, format string, args ...any) error {
	return fmt.Errorf("cluster: shard %d reply %s: %w", s, fmt.Sprintf(format, args...), server.ErrUnreachable)
}

// validateBoxReply rejects a reply that cannot be shard s's honest
// answer: a count/row mismatch, a malformed row, a rank outside the
// shard's declared block, out-of-order ranks, or coordinates outside the
// shard's bounding box. This is the torn-response defense: a worker
// killed mid-write, or a topology wired to the wrong worker, costs
// availability (the reply is treated as a failed attempt) but can never
// place a wrong row into an answer.
func (g *geometry) validateBoxReply(s int, rep *boxReply) error {
	if rep.Count != len(rep.Results) {
		return badReply(s, "declares %d rows, carries %d", rep.Count, len(rep.Results))
	}
	lo, hi := g.offset[s], g.offset[s]+g.records[s]
	prev := -1
	for _, row := range rep.Results {
		if len(row) != 1+g.d {
			return badReply(s, "row arity %d, want %d", len(row), 1+g.d)
		}
		r := row[0]
		if r < lo || r >= hi {
			return badReply(s, "rank %d outside its block [%d,%d)", r, lo, hi)
		}
		if r <= prev {
			return badReply(s, "ranks out of order (%d after %d)", r, prev)
		}
		prev = r
		if !g.contains(s, row[1:]) {
			return badReply(s, "coordinate %v outside shard bounds", row[1:])
		}
	}
	return nil
}

// validatePagesReply rejects malformed or unordered run lists, and runs
// outside the pages of the shard's own rank block — a cross-wired reply
// about another shard's pages must not reach an answer.
func (g *geometry) validatePagesReply(s int, rep *pagesReply) error {
	first, last := g.offset[s]/g.rpp, (g.offset[s]+g.records[s]-1)/g.rpp
	prevEnd := -1
	for _, run := range rep.Runs {
		if len(run) != 2 || run[1] < 1 || g.records[s] == 0 || run[0] < first || run[0] > last-run[1]+1 {
			return badReply(s, "run %v outside its block's pages [%d,%d]", run, first, last)
		}
		if run[0] <= prevEnd {
			return badReply(s, "runs out of order")
		}
		prevEnd = run[0] + run[1] - 1
	}
	return nil
}

// parseBoxReply decodes and validates a worker's box reply into rows of
// [rank, c0, c1, ...].
func parseBoxReply(g *geometry, s int, data []byte) ([][]int, error) {
	var rep boxReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, badReply(s, "%v", err)
	}
	if err := g.validateBoxReply(s, &rep); err != nil {
		return nil, err
	}
	return rep.Results, nil
}

// parsePagesReply decodes and validates a worker's page-run reply.
func parsePagesReply(g *geometry, s int, data []byte) ([]spectrallpm.PageRun, error) {
	var rep pagesReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, badReply(s, "%v", err)
	}
	if err := g.validatePagesReply(s, &rep); err != nil {
		return nil, err
	}
	runs := make([]spectrallpm.PageRun, len(rep.Runs))
	for i, run := range rep.Runs {
		runs[i] = spectrallpm.PageRun{Start: run[0], Pages: run[1]}
	}
	return runs, nil
}

// parseRankReply validates a worker's {"rank":N} against the shard's
// declared block before trusting it.
func parseRankReply(g *geometry, s int, data []byte) (int, error) {
	var rep struct {
		Rank int `json:"rank"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, badReply(s, "%v", err)
	}
	if rep.Rank < g.offset[s] || rep.Rank >= g.offset[s]+g.records[s] {
		return 0, badReply(s, "rank %d outside its block [%d,%d)", rep.Rank, g.offset[s], g.offset[s]+g.records[s])
	}
	return rep.Rank, nil
}

// parsePointReply validates a worker's {"coords":[...]} against the
// shard's declared bounding box before trusting it.
func parsePointReply(g *geometry, s int, data []byte) ([]int, error) {
	var rep struct {
		Coords []int `json:"coords"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, badReply(s, "%v", err)
	}
	if len(rep.Coords) != g.d {
		return nil, badReply(s, "point arity %d, want %d", len(rep.Coords), g.d)
	}
	if !g.contains(s, rep.Coords) {
		return nil, badReply(s, "point %v outside shard bounds", rep.Coords)
	}
	return rep.Coords, nil
}

// --- fan-out planning and assembly ---

// boxPart is one shard's slice of a box query: the clipped box to send
// and the validated reply.
type boxPart struct {
	shard       int
	start, dims []int
	rows        [][]int // box reply: [rank, c0, ...], ascending global ranks
	runs        []spectrallpm.PageRun
	err         error
}

// planParts clips the box against every shard's bounds, returning one
// part per intersecting shard, in shard order. Grid shards tile the
// domain so parts are disjoint; point-set shard boxes may overlap, which
// is fine — each worker returns only its own points, and rank blocks stay
// disjoint.
func (g *geometry) planParts(start, dims []int) []*boxPart {
	parts := make([]*boxPart, 0, len(g.offset))
	for s := range g.offset {
		cs, cd := make([]int, g.d), make([]int, g.d)
		if !shard.ClipBox(start, dims, g.lo[s], g.hi[s], cs, cd) {
			continue
		}
		parts = append(parts, &boxPart{shard: s, start: cs, dims: cd})
	}
	return parts
}

// appendBoxBody encodes {"start":[...],"dims":[...]} for a worker.
func appendBoxBody(b []byte, start, dims []int) []byte {
	b = append(b, `{"start":`...)
	b = server.AppendIntArray(b, start)
	b = append(b, `,"dims":`...)
	b = server.AppendIntArray(b, dims)
	return append(b, '}')
}

func appendCoordsBody(b []byte, coords []int) []byte {
	b = append(b, `{"coords":`...)
	b = server.AppendIntArray(b, coords)
	return append(b, '}')
}

func appendRankBody(b []byte, rank int) []byte {
	b = append(b, `{"rank":`...)
	b = server.AppendInt(b, rank)
	return append(b, '}')
}

// fanOut plans box b and fetches every part from path (/v1/box or
// /v1/pages) concurrently. Each fetch owns its part exclusively; the
// caller reads the parts only after fanOut returns.
func (r *Remote) fanOut(ctx context.Context, g *geometry, b spectrallpm.Box, path string) []*boxPart {
	parts := g.planParts(b.Start, b.Dims)
	if len(parts) == 1 {
		r.fetchPart(ctx, g, parts[0], path)
		return parts
	}
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for _, p := range parts {
		go func(p *boxPart) {
			defer wg.Done()
			r.fetchPart(ctx, g, p, path)
		}(p)
	}
	wg.Wait()
	return parts
}

// fetchPart resolves one shard's slice of a box query into validated
// rows (/v1/box) or runs (/v1/pages).
func (r *Remote) fetchPart(ctx context.Context, g *geometry, p *boxPart, path string) {
	data, status, err := r.fetch(ctx, p.shard, path, appendBoxBody(nil, p.start, p.dims))
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = badReply(p.shard, "status %d: %s", status, bytes.TrimSpace(data))
	case path == "/v1/box":
		p.rows, err = parseBoxReply(g, p.shard, data)
	default:
		p.runs, err = parsePagesReply(g, p.shard, data)
	}
	p.err = err
}

// settle accounts for the failed parts of a fan-out. In strict mode any
// failure fails the query; in partial mode it returns the missing shard
// ids, ascending because parts are planned in shard order.
func (r *Remote) settle(parts []*boxPart) ([]int, error) {
	var missing []int
	for _, p := range parts {
		if p.err == nil {
			continue
		}
		if !r.cfg.Partial {
			return nil, p.err
		}
		missing = append(missing, p.shard)
	}
	return missing, nil
}

// partial labels an answer that lacks the missing shards, counting it.
func (r *Remote) partial(missing []int) error {
	if len(missing) == 0 {
		return nil
	}
	r.partials.Add(1)
	return &server.PartialError{Missing: missing}
}

// mergeRuns coalesces per-shard page-run plans into the global plan. The
// parts come in shard order, each part's runs ascend and lie within its
// own rank block's pages, and shard order is rank order, so the
// concatenated runs ascend by start page. Adjacent or overlapping runs
// fuse (next.Start <= cur.End+1, end extends to the max) — exactly the
// adjacency rule Pager.RunsAppend uses, so the merged plan matches what
// the monolithic index would have planned. Shard rank blocks can split
// mid-page, so two shards may both touch a boundary page; the overlap
// fuses here rather than double-counting.
func mergeRuns(dst []spectrallpm.PageRun, parts []*boxPart) []spectrallpm.PageRun {
	dst = dst[:0]
	for _, p := range parts {
		for _, r := range p.runs {
			if n := len(dst); n > 0 {
				cur := &dst[n-1]
				curEnd := cur.Start + cur.Pages - 1
				if r.Start <= curEnd+1 {
					if end := r.Start + r.Pages - 1; end > curEnd {
						cur.Pages = end - cur.Start + 1
					}
					continue
				}
			}
			dst = append(dst, r)
		}
	}
	return dst
}

// statsFromRuns derives the monolithic IOStats from a merged run plan:
// distinct pages, one seek per run, span from first to last page.
func statsFromRuns(runs []spectrallpm.PageRun) spectrallpm.IOStats {
	var st spectrallpm.IOStats
	if len(runs) == 0 {
		return st
	}
	for _, r := range runs {
		st.Pages += r.Pages
	}
	st.Seeks = len(runs)
	last := runs[len(runs)-1]
	st.SpanPages = last.Start + last.Pages - runs[0].Start
	return st
}

// mergeMissing unions two sorted shard-id lists without duplicates.
func mergeMissing(dst, add []int) []int {
	for _, s := range add {
		i := sort.SearchInts(dst, s)
		if i < len(dst) && dst[i] == s {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = s
	}
	return dst
}

// --- the Queryable surface ---

// ScanIntoContext yields the box's rows in global rank order: the parts'
// validated rows, concatenated in plan order. With missing shards in
// partial mode it returns a *server.PartialError after yielding the rest.
func (r *Remote) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error {
	g, err := r.geometry(ctx)
	if err != nil {
		return err
	}
	if err := g.validateBox(b.Start, b.Dims); err != nil {
		return err
	}
	parts := r.fanOut(ctx, g, b, "/v1/box")
	missing, err := r.settle(parts)
	if err != nil {
		return err
	}
	for _, p := range parts {
		for _, row := range p.rows {
			if !yield(row[0], row[1:]) {
				return nil
			}
		}
	}
	return r.partial(missing)
}

// PagesIntoContext plans the box's page runs across the shards.
func (r *Remote) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	g, err := r.geometry(ctx)
	if err != nil {
		return dst, err
	}
	if err := g.validateBox(b.Start, b.Dims); err != nil {
		return dst, err
	}
	parts := r.fanOut(ctx, g, b, "/v1/pages")
	missing, err := r.settle(parts)
	if err != nil {
		return dst, err
	}
	return mergeRuns(dst, parts), r.partial(missing)
}

// QueryBatchContext derives each box's I/O stats from its cross-shard
// page plan, validating every box before fanning any out (the monolithic
// all-or-nothing contract). Stats are not additive across shards, which
// is why the router plans pages rather than summing worker stats.
func (r *Remote) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	g, err := r.geometry(ctx)
	if err != nil {
		return nil, err
	}
	for _, b := range boxes {
		if err := g.validateBox(b.Start, b.Dims); err != nil {
			return nil, err
		}
	}
	stats := make([]spectrallpm.IOStats, len(boxes))
	var missing []int
	for i, b := range boxes {
		parts := r.fanOut(ctx, g, b, "/v1/pages")
		boxMissing, err := r.settle(parts)
		if err != nil {
			return nil, err
		}
		missing = mergeMissing(missing, boxMissing)
		stats[i] = statsFromRuns(mergeRuns(nil, parts))
	}
	return stats, r.partial(missing)
}

// QueryIOContext is QueryBatchContext for one box.
func (r *Remote) QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error) {
	stats, err := r.QueryBatchContext(ctx, []spectrallpm.Box{b})
	if len(stats) == 0 {
		return spectrallpm.IOStats{}, err
	}
	return stats[0], err
}

// RankContext asks the shard that contains coords for its global rank.
// Grid shards tile the domain, so exactly one shard contains the point;
// point-set shard boxes may overlap, so every containing shard is a
// candidate and a "not indexed" answer means "keep asking". A scalar
// answer cannot be partial: an unreachable owner (or, for point sets, any
// unreachable candidate once every reachable one said "not here") is an
// error even in partial mode.
func (r *Remote) RankContext(ctx context.Context, coords []int) (int, error) {
	g, err := r.geometry(ctx)
	if err != nil {
		return 0, err
	}
	if err := g.validateCoords(coords); err != nil {
		return 0, err
	}
	body := appendCoordsBody(nil, coords)
	var lastErr error
	for s := range g.offset {
		if !g.contains(s, coords) {
			continue
		}
		data, err := r.exchange(ctx, s, "/v1/rank", body)
		switch {
		case err == nil:
			return parseRankReply(g, s, data)
		case !g.points:
			return 0, err
		case errors.Is(err, server.ErrUnreachable):
			lastErr = err
		case !errors.Is(err, spectrallpm.ErrPointNotIndexed):
			return 0, err
		}
	}
	if lastErr != nil {
		return 0, lastErr
	}
	return 0, fmt.Errorf("cluster: point %v not indexed: %w", coords, spectrallpm.ErrPointNotIndexed)
}

// PointContext asks the shard whose rank block holds rank for its point.
func (r *Remote) PointContext(ctx context.Context, rank int) ([]int, error) {
	g, err := r.geometry(ctx)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= g.total {
		return nil, fmt.Errorf("cluster: rank %d outside [0,%d): %w", rank, g.total, spectrallpm.ErrRankOutOfRange)
	}
	s := g.owner(rank)
	data, err := r.exchange(ctx, s, "/v1/point", appendRankBody(nil, rank))
	if err != nil {
		return nil, err
	}
	return parsePointReply(g, s, data)
}

// Rank and Point complete the Queryable surface, whose signatures carry
// no context; the shell calls the Context forms.
func (r *Remote) Rank(coords ...int) (int, error) {
	return r.RankContext(context.TODO(), coords)
}

func (r *Remote) Point(rank int) ([]int, error) {
	return r.PointContext(context.TODO(), rank)
}
