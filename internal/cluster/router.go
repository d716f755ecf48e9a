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
//   - box and pages parts travel as reply frames (server.ParseFrame):
//     fixed-width little-endian values under a CRC32C, read into pooled
//     storage capped at the part's largest honest size, and decoded and
//     validated in one pass; rank and point answers stay JSON.
//   - every per-shard reply is validated against the shard's declared
//     rank block and bounding box before it may enter an answer; a torn
//     or cross-wired reply fails its part.
package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
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

// maxScalarReply caps every worker body that is not a reply frame: rank,
// point and shardinfo answers, /healthz, and error lines. The largest
// legitimate one, the shardinfo of a high-dimensional grid, stays far
// under it.
const maxScalarReply = 64 << 10

// call is one logical exchange with a shard: the path, the request body
// (nil sends a GET), and, for box and pages parts, whether to ask for a
// reply frame and the cap on its bytes.
type call struct {
	path  string
	body  []byte
	frame bool
	limit int // a framed 200 reply's cap; every other body gets maxScalarReply
}

// reply is one worker answer in pooled storage: the status, the
// Content-Type, the body and, once a part decodes it, the frame's values
// (box rows at stride 1+d, or page runs at stride 2). The receiver
// releases it once nothing reads data or vals any more.
type reply struct {
	status int
	ctype  string
	data   []byte
	vals   []int
}

var replyPool = sync.Pool{New: func() any { return new(reply) }}

// getReply leases a reply; return it with Release.
//
//lpm:poolget
func getReply() *reply { return replyPool.Get().(*reply) }

func (rp *reply) Release() { replyPool.Put(rp) }

// do performs one HTTP exchange with one replica, bounded by ctx, and
// reads the body into a pooled reply: at most c.limit bytes for a framed
// 200, maxScalarReply for anything else. A body that declares or streams
// more is a failed attempt, cut off after one byte past the cap, so a
// misbehaving worker cannot make the router buffer without limit. The
// router.dial fault point fires before the request leaves, so chaos tests
// can fail or stall individual dials on the fan-out path.
func (r *Remote) do(ctx context.Context, rep *replica, c call) (*reply, error) {
	faultinject.Fire(faultinject.PointRouterDial)
	method := http.MethodGet
	var rd io.Reader
	if c.body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+rep.addr+c.path, rd)
	if err != nil {
		return nil, err
	}
	if c.frame {
		req.Header.Set("Accept", server.FrameContentType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	// Closing an unread body drops the connection, which stops a worker
	// that is still streaming past the cap.
	defer resp.Body.Close()
	limit := maxScalarReply
	if c.frame && resp.StatusCode == http.StatusOK {
		limit = c.limit
	}
	if resp.ContentLength > int64(limit) {
		return nil, fmt.Errorf("cluster: replica %s declares a %d-byte reply, over its %d-byte cap", rep.addr, resp.ContentLength, limit)
	}
	rp := getReply()
	if resp.ContentLength >= 0 {
		rp.data = slices.Grow(rp.data[:0], int(resp.ContentLength)+1)
	}
	rp.data, err = readCapped(resp.Body, rp.data, limit)
	if err != nil {
		// A connection severed mid-body (worker killed mid-write) lands
		// here too: the reply never reaches an answer.
		rp.Release()
		return nil, fmt.Errorf("cluster: replica %s: %w", rep.addr, err)
	}
	rp.status, rp.ctype = resp.StatusCode, resp.Header.Get("Content-Type")
	return rp, nil
}

// readCapped reads body into dst[:0] and fails once it passes limit
// bytes, so it never buffers more than limit+1.
func readCapped(body io.Reader, dst []byte, limit int) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(max(len(dst), 512), limit+1-len(dst)))
		}
		n, err := body.Read(dst[len(dst):min(cap(dst), limit+1)])
		dst = dst[:len(dst)+n]
		if len(dst) > limit {
			return dst, fmt.Errorf("reply passes its %d-byte cap", limit)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// attemptResult is one replica's answer inside a hedged attempt.
type attemptResult struct {
	rep *replica
	rp  *reply
	err error
}

// attemptHedged runs one bounded attempt against primary, racing a hedged
// request against backup when primary has not answered within HedgeAfter.
// First success wins; the shared attempt context is canceled on return,
// aborting the loser, whose reply the garbage collector rather than the
// pool reclaims. Failures (transport errors and 5xx) mark the replica; a
// canceled loser marks nothing.
func (r *Remote) attemptHedged(ctx context.Context, primary, backup *replica, c call) (*reply, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	ch := make(chan attemptResult, 2) // buffered: a canceled loser's send never blocks
	launch := func(rep *replica) {
		go func() {
			rp, err := r.do(actx, rep, c)
			ch <- attemptResult{rep, rp, err}
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
			if res.err == nil && res.rp.status < http.StatusInternalServerError {
				res.rep.succeed(r)
				return res.rp, nil
			}
			// Don't hold a replica's health hostage to the caller's clock:
			// an attempt cut short because the REQUEST deadline (not the
			// attempt budget) expired says nothing about the replica.
			if ctx.Err() == nil {
				res.rep.fail(r)
			}
			err := res.err
			if err == nil {
				err = fmt.Errorf("cluster: replica %s answered status %d", res.rep.addr, res.rp.status)
				res.rp.Release()
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return nil, firstErr
}

// fetch resolves one logical exchange with shard s: replicas are tried
// healthy-first in rotation, each attempt is hedged and bounded, and
// failed attempts retry against the next replica after a jittered
// exponential backoff. 2xx–4xx replies return to the caller (the workers
// validate with the same rules the router does, so a 4xx is the client's
// to see), who releases them; transport errors, oversized bodies and 5xx
// burn the attempt, and a shard with no attempt left is
// server.ErrUnreachable.
func (r *Remote) fetch(ctx context.Context, s int, c call) (*reply, error) {
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
		rp, err := r.attemptHedged(ctx, primary, backup, c)
		if err == nil {
			return rp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, fmt.Errorf("cluster: shard %d: %w: %w", s, server.ErrUnreachable, lastErr)
}

// exchange fetches a scalar answer from shard s and returns a 200 reply,
// which the caller releases. Other statuses carry the worker's
// diagnostic: 400 and 404 keep their meaning (the workers validate with
// the router's rules), anything else is the shard's failure.
func (r *Remote) exchange(ctx context.Context, s int, path string, body []byte) (*reply, error) {
	rp, err := r.fetch(ctx, s, call{path: path, body: body})
	if err != nil || rp.status == http.StatusOK {
		return rp, err
	}
	defer rp.Release()
	cause := server.ErrUnreachable
	switch rp.status {
	case http.StatusBadRequest:
		cause = server.ErrBadRequest
	case http.StatusNotFound:
		cause = spectrallpm.ErrPointNotIndexed
	}
	return nil, fmt.Errorf("cluster: shard %d answered status %d: %s: %w", s, rp.status, bytes.TrimSpace(rp.data), cause)
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

// --- per-shard reply decoding and torn-reply validation ---

// badReply reports a reply that cannot be shard s's honest answer. It is
// the shard's failure (server.ErrUnreachable), never part of an answer.
func badReply(s int, format string, args ...any) error {
	return fmt.Errorf("cluster: shard %d reply %s: %w", s, fmt.Sprintf(format, args...), server.ErrUnreachable)
}

// decodePart accepts shard s's reply to a box (or, with pages, a pages)
// part only as a 200 carrying a whole reply frame, and decodes the frame
// into rp.vals. This is the torn-response defense: a worker killed
// mid-write, a JSON body, or a topology wired to the wrong worker costs
// availability (the part fails) but can never place a wrong row into an
// answer.
func (g *geometry) decodePart(s int, rp *reply, pages bool) error {
	if rp.status != http.StatusOK {
		return badReply(s, "status %d: %s", rp.status, bytes.TrimSpace(rp.data))
	}
	if rp.ctype != server.FrameContentType {
		return badReply(s, "Content-Type %q, want %q", rp.ctype, server.FrameContentType)
	}
	count, width, vals, err := server.ParseFrame(rp.data)
	if err != nil {
		return badReply(s, "%v", err)
	}
	if pages {
		return g.decodeRuns(s, rp, count, width, vals)
	}
	return g.decodeRows(s, rp, count, width, vals)
}

// decodeRows decodes count box rows of width 1+d ([rank, c0, c1, ...])
// into rp.vals, checking in the same pass that every rank lies in shard
// s's rank block and ascends strictly, and that every coordinate lies in
// the shard's bounding box.
//
//lpm:allocfree — the rejection branches excepted.
func (g *geometry) decodeRows(s int, rp *reply, count, width int, vals []byte) error {
	if width != 1+g.d {
		//lpm:allocok — rejection branch; an honest reply never reaches it.
		return badReply(s, "row width %d, want %d", width, 1+g.d)
	}
	lo, hi := g.offset[s], g.offset[s]+g.records[s]
	if count > hi-lo {
		//lpm:allocok — rejection branch; an honest reply never reaches it.
		return badReply(s, "declares %d rows, more than its %d records", count, hi-lo)
	}
	n := count * width
	if cap(rp.vals) < n {
		rp.vals = make([]int, n)
	}
	out := rp.vals[:n]
	blo, bhi := g.lo[s][:g.d], g.hi[s][:g.d]
	prev := lo - 1
	for i := 0; i < n; i += width {
		src, row := vals[8*i:8*(i+width)], out[i:i+width]
		rank := int(binary.LittleEndian.Uint64(src))
		// Unsigned differences fold each two-sided range check into one
		// compare; rowFault names the failed check off the hot path.
		bad := uint(rank-prev-1) >= uint(hi-prev-1)
		row[0] = rank
		for j := range blo {
			c := int(binary.LittleEndian.Uint64(src[8+8*j:]))
			bad = bad || uint(c-blo[j]) > uint(bhi[j]-blo[j])
			row[1+j] = c
		}
		if bad {
			return g.rowFault(s, row, prev)
		}
		prev = rank
	}
	rp.vals = out
	return nil
}

// rowFault reports why row, following rank prev, is not an honest row of
// shard s.
func (g *geometry) rowFault(s int, row []int, prev int) error {
	lo, hi := g.offset[s], g.offset[s]+g.records[s]
	switch rank := row[0]; {
	case rank < lo || rank >= hi:
		return badReply(s, "rank %d outside its block [%d,%d)", rank, lo, hi)
	case rank <= prev:
		return badReply(s, "ranks out of order (%d after %d)", rank, prev)
	}
	return badReply(s, "rank %d coordinates %v outside shard bounds %v–%v", row[0], row[1:], g.lo[s], g.hi[s])
}

// decodeRuns decodes count page runs of width 2 ([start, pages]) into
// rp.vals, checking in the same pass that the runs ascend without
// overlap and lie inside the pages of shard s's own rank block — a
// cross-wired reply about another shard's pages must not reach an answer.
//
//lpm:allocfree — the rejection branches excepted.
func (g *geometry) decodeRuns(s int, rp *reply, count, width int, vals []byte) error {
	if width != 2 {
		//lpm:allocok — rejection branch; an honest reply never reaches it.
		return badReply(s, "run width %d, want 2", width)
	}
	first, last := g.offset[s]/g.rpp, (g.offset[s]+g.records[s]-1)/g.rpp
	if count > last-first+1 {
		//lpm:allocok — rejection branch; an honest reply never reaches it.
		return badReply(s, "declares %d runs, more than its block's %d pages", count, last-first+1)
	}
	n := 2 * count
	if cap(rp.vals) < n {
		rp.vals = make([]int, n)
	}
	out := rp.vals[:n]
	prevEnd := -1
	for i := 0; i < n; i += 2 {
		start := int(binary.LittleEndian.Uint64(vals[8*i:]))
		pages := int(binary.LittleEndian.Uint64(vals[8*i+8:]))
		if pages < 1 || g.records[s] == 0 || start < first || start > last-pages+1 {
			//lpm:allocok — rejection branch; an honest reply never reaches it.
			return badReply(s, "run [%d,%d] outside its block's pages [%d,%d]", start, pages, first, last)
		}
		if start <= prevEnd {
			//lpm:allocok — rejection branch; an honest reply never reaches it.
			return badReply(s, "runs out of order")
		}
		prevEnd = start + pages - 1
		out[i], out[i+1] = start, pages
	}
	rp.vals = out
	return nil
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
// and the validated reply, whose vals hold box rows [rank, c0, ...] at
// stride 1+d in ascending global rank order, or page runs [start, pages].
type boxPart struct {
	shard       int
	start, dims []int
	rp          *reply // nil unless the part succeeded
	err         error
}

// releaseParts returns the parts' replies to the pool once the answer
// has been assembled from them.
func releaseParts(parts []*boxPart) {
	for _, p := range parts {
		if p.rp != nil {
			p.rp.Release()
			p.rp = nil
		}
	}
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

// fanOut plans box b and fetches every part's rows (or, with pages, its
// page runs) concurrently. Each fetch owns its part exclusively; the
// caller reads the parts only after fanOut returns, and releases them.
func (r *Remote) fanOut(ctx context.Context, g *geometry, b spectrallpm.Box, pages bool) []*boxPart {
	parts := g.planParts(b.Start, b.Dims)
	if len(parts) == 1 {
		r.fetchPart(ctx, g, parts[0], pages)
		return parts
	}
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for _, p := range parts {
		go func(p *boxPart) {
			defer wg.Done()
			r.fetchPart(ctx, g, p, pages)
		}(p)
	}
	wg.Wait()
	return parts
}

// fetchPart resolves one shard's slice of a box query into validated
// rows (/v1/box) or runs (/v1/pages), asking for a reply frame no larger
// than the part can honestly be.
func (r *Remote) fetchPart(ctx context.Context, g *geometry, p *boxPart, pages bool) {
	c := call{path: "/v1/box", body: appendBoxBody(nil, p.start, p.dims), frame: true}
	width := 1 + g.d
	if pages {
		c.path, width = "/v1/pages", 2
	}
	c.limit = g.frameCap(p.shard, p.dims, width)
	rp, err := r.fetch(ctx, p.shard, c)
	if err == nil {
		if err = g.decodePart(p.shard, rp, pages); err != nil {
			rp.Release()
		} else {
			p.rp = rp
		}
	}
	p.err = err
}

// frameCap is the size of the largest honest reply frame to shard s's
// part of a box clipped to dims: one row (or page run) of width values
// per cell of the part, and never more than the shard's records.
func (g *geometry) frameCap(s int, dims []int, width int) int {
	rows := 1
	for _, d := range dims {
		if d > 0 && rows > g.records[s]/d {
			rows = g.records[s]
			break
		}
		rows *= d
	}
	return server.FrameHeaderSize + rows*width*8 + server.FrameTrailerSize
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
		if p.rp == nil {
			continue
		}
		for i := 0; i < len(p.rp.vals); i += 2 {
			r := spectrallpm.PageRun{Start: p.rp.vals[i], Pages: p.rp.vals[i+1]}
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
	parts := r.fanOut(ctx, g, b, false)
	defer releaseParts(parts)
	missing, err := r.settle(parts)
	if err != nil {
		return err
	}
	w := 1 + g.d
	for _, p := range parts {
		if p.rp == nil {
			continue
		}
		for i, v := 0, p.rp.vals; i < len(v); i += w {
			if !yield(v[i], v[i+1:i+w]) {
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
	parts := r.fanOut(ctx, g, b, true)
	defer releaseParts(parts)
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
		parts := r.fanOut(ctx, g, b, true)
		boxMissing, err := r.settle(parts)
		if err == nil {
			missing = mergeMissing(missing, boxMissing)
			stats[i] = statsFromRuns(mergeRuns(nil, parts))
		}
		releaseParts(parts)
		if err != nil {
			return nil, err
		}
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
		rp, err := r.exchange(ctx, s, "/v1/rank", body)
		switch {
		case err == nil:
			defer rp.Release()
			return parseRankReply(g, s, rp.data)
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
	rp, err := r.exchange(ctx, s, "/v1/point", appendRankBody(nil, rank))
	if err != nil {
		return nil, err
	}
	defer rp.Release()
	return parsePointReply(g, s, rp.data)
}

// Rank and Point complete the Queryable surface, whose signatures carry
// no context; the shell calls the Context forms.
func (r *Remote) Rank(coords ...int) (int, error) {
	return r.RankContext(context.TODO(), coords)
}

func (r *Remote) Point(rank int) ([]int, error) {
	return r.PointContext(context.TODO(), rank)
}
